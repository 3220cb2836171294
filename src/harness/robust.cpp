#include "harness/robust.h"

#include <cmath>
#include <functional>
#include <sstream>
#include <utility>

#include "util/error.h"

namespace tgi::harness {

void RobustConfig::validate() const {
  TGI_REQUIRE(backoff_base.value() >= 0.0, "backoff_base must be >= 0");
  TGI_REQUIRE(timeout_stall.value() >= 0.0, "timeout_stall must be >= 0");
  TGI_REQUIRE(min_coverage > 0.0 && min_coverage <= 1.0,
              "min_coverage must be in (0, 1]");
  TGI_REQUIRE(max_gap_fraction > 0.0 && max_gap_fraction <= 1.0,
              "max_gap_fraction must be in (0, 1]");
  TGI_REQUIRE(spike_jump_ratio >= 0.0, "spike_jump_ratio must be >= 0");
}

std::string reading_defect(const power::MeterReading& reading,
                           util::Seconds expected_duration,
                           const RobustConfig& config) {
  const auto& samples = reading.trace.samples();
  std::ostringstream why;

  // Coverage: a truncated log spans less of the run than it should.
  if (reading.duration.value() <
      config.min_coverage * expected_duration.value()) {
    why << "trace covers " << reading.duration.value() << " s of a "
        << expected_duration.value() << " s run (min coverage "
        << config.min_coverage << ")";
    return why.str();
  }

  // Gap: a dropout burst leaves a hole no trapezoid should bridge.
  double max_gap = 0.0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    max_gap = std::max(max_gap,
                       samples[i].t.value() - samples[i - 1].t.value());
  }
  if (max_gap > config.max_gap_fraction * expected_duration.value()) {
    why << "largest sample gap " << max_gap << " s exceeds "
        << config.max_gap_fraction << " of the " << expected_duration.value()
        << " s run";
    return why.str();
  }

  // Spike: a gain-spike window enters and exits with a sharp level jump
  // (the rogue gain is at least 1.5x), so two big interior jumps mark a
  // transient window. The exclusion window is symmetric by contract: of
  // the samples.size() - 1 adjacent-sample intervals, exactly the first
  // and the last are skipped (ramp-in and ramp-out jump legitimately);
  // every interior interval (samples[i-1], samples[i]) for i in
  // [2, size - 2] is examined — including the one whose exit jump lands
  // on the last interior interval.
  if (config.spike_jump_ratio > 1.0 && samples.size() >= 8) {
    std::size_t jumps = 0;
    const std::size_t last_interior = samples.size() - 2;
    for (std::size_t i = 2; i <= last_interior; ++i) {
      const double prev = samples[i - 1].watts.value();
      const double cur = samples[i].watts.value();
      if (prev <= 0.0 || cur <= 0.0) {
        // A powered cluster never draws <= 0 W, so a non-positive
        // interior sample is instrument garbage in its own right. Report
        // it instead of skipping the interval: the old silent `continue`
        // let all-zero and zero-padded traces sail through this check.
        why << "non-positive interior sample ("
            << (cur <= 0.0 ? cur : prev) << " W at sample "
            << (cur <= 0.0 ? i : i - 1) << ")";
        return why.str();
      }
      const double ratio = cur > prev ? cur / prev : prev / cur;
      if (ratio > config.spike_jump_ratio) ++jumps;
    }
    if (jumps >= 2) {
      why << jumps << " interior level jumps exceed ratio "
          << config.spike_jump_ratio << " (gain-spike window)";
      return why.str();
    }
  }

  // Stuck-at: a noisy instrument never repeats a reading bit-exactly for
  // long; a frozen one does.
  if (config.stuck_run_limit > 0) {
    std::size_t run = 1;
    for (std::size_t i = 1; i < samples.size(); ++i) {
      run = samples[i].watts.value() == samples[i - 1].watts.value() ? run + 1
                                                                     : 1;
      if (run > config.stuck_run_limit) {
        why << run << " consecutive identical readings (limit "
            << config.stuck_run_limit << ")";
        return why.str();
      }
    }
  }
  return {};
}

ValidatingMeter::ValidatingMeter(power::PowerMeter& inner, RobustConfig config)
    : inner_(inner), config_(config) {
  config_.validate();
}

power::MeterReading ValidatingMeter::measure(const power::PowerSteps& source,
                                             util::Seconds duration) {
  power::MeterReading reading = inner_.measure(source, duration);
  if (config_.validate_readings) {
    const std::string defect = reading_defect(reading, duration, config_);
    if (!defect.empty()) {
      ++rejects_;
      throw ReadingRejected(inner_.name() + ": " + defect);
    }
    if (metrics_ != nullptr) {
      metrics_->add("samples_validated",
                    static_cast<double>(reading.trace.samples().size()));
    }
  }
  return reading;
}

std::string ValidatingMeter::name() const {
  return "Validated(" + inner_.name() + ")";
}

std::size_t robust_measurements_per_point(const SuiteConfig& suite,
                                          const RobustConfig& robust) {
  // Derived from the same roster run_suite executes, so the meter stride
  // cannot drift from the benchmark list when the suite grows a member.
  return suite_benchmarks(suite).size() * (robust.max_retries + 1);
}

RobustSuiteRunner::RobustSuiteRunner(sim::ClusterSpec cluster,
                                     power::PowerMeter& meter, FaultPlan plan,
                                     RobustConfig robust, SuiteConfig suite,
                                     std::size_t point_index)
    : plan_(std::move(plan)),
      robust_(robust),
      suite_(suite),
      point_index_(point_index),
      faulty_(meter, plan_,
              point_index * robust_measurements_per_point(suite, robust)),
      validating_(faulty_, robust),
      runner_(std::move(cluster), validating_, suite) {}

void RobustSuiteRunner::attach_recorder(obs::PointRecorder* recorder) {
  recorder_ = recorder;
  runner_.attach_recorder(recorder);
  validating_.attach_metrics(recorder != nullptr ? &recorder->metrics()
                                                 : nullptr);
}

void RobustSuiteRunner::begin_point(RobustSuitePoint& out,
                                    std::size_t processes) {
  out.point.processes = processes;
  out.point.nodes = runner_.cluster().nodes_for(processes);
  meter_faults_before_ = faulty_.faults_applied();
}

void RobustSuiteRunner::run_member(RobustSuitePoint& out, std::size_t member,
                                   std::size_t processes) {
  // The ONE suite enumeration (suite_benchmarks) drives this member, the
  // plain SuiteRunner::run_suite, and robust_measurements_per_point's
  // meter stride alike.
  const std::vector<std::string> benches = suite_benchmarks(suite_);
  TGI_REQUIRE(member < benches.size(),
              "run_member index " << member << " out of range for a "
                                  << benches.size() << "-member suite");
  {
    const std::size_t b = member;
    bool survived = false;
    core::BenchmarkMeasurement m;
    for (std::size_t attempt = 0; attempt <= robust_.max_retries; ++attempt) {
      // A truncation armed by a previous attempt whose measurement never
      // happened (e.g. the meter threw first) must not leak onto this
      // attempt's reading.
      faulty_.disarm_truncation();
      ++out.counters.attempts;
      if (recorder_ != nullptr) {
        recorder_->set_context(b, attempt);
        recorder_->metrics().add("attempts");
        recorder_->metrics().set_max(
            "attempt_max", static_cast<double>(attempt));
      }
      if (attempt > 0) {
        ++out.counters.retries;
        const util::Seconds backoff =
            robust_.backoff_base *
            std::ldexp(1.0, static_cast<int>(attempt) - 1);
        out.counters.backoff += backoff;
        if (recorder_ != nullptr) {
          recorder_->span("backoff", "recovery", recorder_->now(), backoff);
          recorder_->advance(backoff);
          recorder_->metrics().add("retries");
          recorder_->metrics().add("backoff_seconds", backoff.value());
        }
      }
      const RunFault rf = plan_.run_fault(point_index_, b, attempt);
      if (rf.kind == RunFaultKind::kBenchmarkFailure) {
        ++out.counters.run_faults;
        if (recorder_ != nullptr) {
          recorder_->instant("benchmark-failure", "fault",
                             {{"benchmark", benches[b]}});
          recorder_->metrics().add("run_faults");
        }
        continue;  // died before a measurement existed
      }
      if (rf.kind == RunFaultKind::kTimeout) {
        ++out.counters.run_faults;
        out.counters.stalled += robust_.timeout_stall;
        if (recorder_ != nullptr) {
          recorder_->span("stall", "fault", recorder_->now(),
                          robust_.timeout_stall,
                          {{"benchmark", benches[b]}});
          recorder_->advance(robust_.timeout_stall);
          recorder_->metrics().add("run_faults");
          recorder_->metrics().add("stalled_seconds",
                                   robust_.timeout_stall.value());
        }
        continue;  // watchdog killed it; nothing to measure
      }
      if (rf.kind == RunFaultKind::kTruncatedTrace) {
        ++out.counters.run_faults;
        faulty_.arm_truncation(plan_.spec().truncation_fraction);
        if (recorder_ != nullptr) {
          recorder_->instant("truncated-trace", "fault",
                             {{"benchmark", benches[b]}});
          recorder_->metrics().add("run_faults");
        }
      }
      try {
        m = runner_.run_benchmark(benches[b], processes);
        survived = true;
        break;
      } catch (const ReadingRejected& rejected) {
        ++out.counters.rejected_readings;
        if (recorder_ != nullptr) {
          recorder_->instant("reading-rejected", "fault",
                             {{"why", rejected.what()}});
          recorder_->metrics().add("rejected_readings");
        }
      }
    }
    if (survived) {
      out.point.measurements.push_back(std::move(m));
    } else {
      out.missing.emplace_back(benches[b]);
      ++out.counters.dropped_benchmarks;
      if (recorder_ != nullptr) {
        recorder_->instant("benchmark-dropped", "recovery",
                           {{"benchmark", benches[b]}});
        recorder_->metrics().add("dropped_benchmarks");
      }
    }
  }
}

void RobustSuiteRunner::finish_point(RobustSuitePoint& out) {
  out.counters.meter_faults = faulty_.faults_applied() - meter_faults_before_;
  if (recorder_ != nullptr && out.counters.meter_faults > 0) {
    recorder_->metrics().add(
        "meter_faults", static_cast<double>(out.counters.meter_faults));
  }
}

RobustSuitePoint RobustSuiteRunner::run_suite(std::size_t processes) {
  RobustSuitePoint out;
  begin_point(out, processes);
  const std::size_t members = suite_benchmarks(suite_).size();
  for (std::size_t b = 0; b < members; ++b) {
    run_member(out, b, processes);
  }
  finish_point(out);
  return out;
}

}  // namespace tgi::harness
