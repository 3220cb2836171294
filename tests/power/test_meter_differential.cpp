// Differential test of the segment-walking meters against a reference copy
// of the per-sample meter loop they replaced.
//
// The reference below samples a timeline exactly as the original meters
// did: one source call per sample that binary-searches the segment ends and
// evaluates the cluster power model, a checked append, then a separate
// trapezoid pass for energy and another for average power. The production
// WattsUpMeter/ModelMeter walk a precomputed step view with a forward cursor
// and integrate while appending. Every sample (t, watts) and the energy,
// duration and average power must agree bit for bit, on seeded generated
// timelines and meter configurations, directly and through the
// FaultyMeter/ValidatingMeter decorators. test_meter_digests.cpp pins both
// sides to bytes recorded from the original meter.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/faults.h"
#include "harness/robust.h"
#include "power/meter.h"
#include "sim/catalog.h"
#include "util/rng.h"

namespace tgi::power {
namespace {

// ---------------------------------------------------------------- reference

/// The original PowerTimeline::power_at: upper_bound over the segment ends,
/// then a full cluster power model evaluation per call.
std::function<util::Watts(util::Seconds)> reference_source(
    const PowerTimeline& timeline) {
  std::vector<double> ends;
  double t = 0.0;
  for (const auto& seg : timeline.segments()) {
    t += seg.duration.value();
    ends.push_back(t);
  }
  return [&timeline, ends, total = util::Seconds(t)](util::Seconds at) {
    if (at >= total) return timeline.model().idle_wall_power();
    const auto it = std::upper_bound(ends.begin(), ends.end(), at.value());
    const auto& seg =
        timeline.segments()[static_cast<std::size_t>(it - ends.begin())];
    return timeline.model().wall_power(seg.utilization, seg.active_nodes);
  };
}

struct ReferenceReading {
  std::vector<PowerSample> samples;
  util::Seconds duration{0.0};
  util::Joules energy{0.0};
  util::Watts average_power{0.0};
};

/// The original two-pass summary: trapezoid energy, then energy / span.
ReferenceReading reference_summary(std::vector<PowerSample> samples) {
  ReferenceReading r;
  r.duration = samples.back().t - samples.front().t;
  util::Joules total{0.0};
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const util::Seconds dt = samples[i].t - samples[i - 1].t;
    const util::Watts avg = (samples[i].watts + samples[i - 1].watts) * 0.5;
    total += avg * dt;
  }
  r.energy = total;
  r.average_power = r.energy / r.duration;
  r.samples = std::move(samples);
  return r;
}

/// The original WattsUpMeter::measure loop for the `run`-th measurement of a
/// meter built from `config` (run counts from 1).
ReferenceReading reference_wattsup(
    const WattsUpConfig& config, std::uint64_t run,
    const std::function<util::Watts(util::Seconds)>& source,
    util::Seconds duration) {
  util::Xoshiro256 rng(config.seed + 0x632be59bd9b4e019ULL * run);
  const double gain =
      1.0 + rng.uniform(-config.accuracy_pct, config.accuracy_pct) / 100.0;
  std::vector<PowerSample> samples;
  const double dt = config.sample_interval.value();
  const auto steps =
      static_cast<std::size_t>(std::ceil(duration.value() / dt));
  for (std::size_t i = 0; i <= steps; ++i) {
    const util::Seconds t(std::min(static_cast<double>(i) * dt,
                                   duration.value()));
    if (config.dropout_rate > 0.0 && i != 0 && i != steps &&
        rng.uniform() < config.dropout_rate) {
      continue;
    }
    const double true_watts = source(t).value();
    double observed = true_watts * gain;
    if (config.noise_pct > 0.0) {
      observed *= 1.0 + rng.normal(0.0, config.noise_pct / 100.0);
    }
    if (config.resolution.value() > 0.0) {
      const double q = config.resolution.value();
      observed = std::round(observed / q) * q;
    }
    samples.push_back({t, util::Watts(std::max(observed, 0.0))});
  }
  return reference_summary(std::move(samples));
}

/// The original ModelMeter::measure loop.
ReferenceReading reference_model(
    util::Seconds interval,
    const std::function<util::Watts(util::Seconds)>& source,
    util::Seconds duration) {
  std::vector<PowerSample> samples;
  const double dt = interval.value();
  const auto steps =
      static_cast<std::size_t>(std::ceil(duration.value() / dt));
  for (std::size_t i = 0; i <= steps; ++i) {
    const util::Seconds t(std::min(static_cast<double>(i) * dt,
                                   duration.value()));
    samples.push_back({t, source(t)});
  }
  return reference_summary(std::move(samples));
}

/// A PowerMeter that ignores the step view it is handed and runs the
/// reference loop on its bound timeline, so the decorators can wrap it.
class ReferenceMeter final : public PowerMeter {
 public:
  ReferenceMeter(const PowerTimeline& timeline, WattsUpConfig config)
      : source_(reference_source(timeline)),
        config_(config),
        run_(config.run_offset) {}

  [[nodiscard]] MeterReading measure(const PowerSteps& /*source*/,
                                     util::Seconds duration) override {
    const ReferenceReading ref =
        reference_wattsup(config_, ++run_, source_, duration);
    MeterReading reading;
    for (const PowerSample& s : ref.samples) reading.trace.add(s);
    reading.duration = ref.duration;
    reading.energy = ref.energy;
    reading.average_power = ref.average_power;
    return reading;
  }
  [[nodiscard]] std::string name() const override { return "reference"; }

 private:
  std::function<util::Watts(util::Seconds)> source_;
  WattsUpConfig config_;
  std::uint64_t run_;
};

// ---------------------------------------------------------------- generators

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Seeded timeline: 1-64 segments on one of the shipped clusters' power
/// models, with durations shorter than, equal to, integer multiples of and
/// arbitrary multiples of the sample interval `dt`.
PowerTimeline generated_timeline(util::Xoshiro256& rng, double dt) {
  const std::vector<sim::ClusterSpec> clusters = {
      sim::fire_cluster(), sim::system_g(), sim::departmental_cluster(),
      sim::low_power_cluster(), sim::commodity_gige_cluster()};
  const sim::ClusterSpec& cluster =
      clusters[rng.uniform_index(clusters.size())];
  const ClusterPowerModel model = cluster.power_model();
  const std::size_t count = 1 + rng.uniform_index(64);
  std::vector<UtilizationSegment> segments;
  for (std::size_t k = 0; k < count; ++k) {
    double duration = 0.0;
    switch (rng.uniform_index(5)) {
      case 0: duration = dt * rng.uniform(0.05, 0.95); break;
      case 1: duration = dt; break;
      case 2: duration = dt * static_cast<double>(1 + rng.uniform_index(8));
              break;
      case 3: duration = dt * rng.uniform(1.05, 25.0); break;
      default: duration = rng.uniform(0.01, 3.0 * dt); break;
    }
    ComponentUtilization u;
    u.cpu = rng.uniform();
    u.memory = rng.uniform();
    u.disk = rng.uniform();
    u.network = rng.uniform();
    segments.push_back({util::Seconds(duration), u,
                        rng.uniform_index(model.node_count() + 1)});
  }
  return PowerTimeline(model, std::move(segments));
}

/// Seeded WattsUp configuration; each error term is sometimes exactly 0.
WattsUpConfig generated_config(util::Xoshiro256& rng, double dt) {
  WattsUpConfig cfg;
  cfg.sample_interval = util::Seconds(dt);
  cfg.resolution = util::Watts(rng.uniform() < 0.25 ? 0.0 : 0.1);
  cfg.accuracy_pct = rng.uniform() < 0.25 ? 0.0 : 1.5;
  cfg.noise_pct = rng.uniform() < 0.25 ? 0.0 : rng.uniform(0.05, 0.5);
  cfg.dropout_rate = rng.uniform() < 0.5 ? 0.0 : rng.uniform(0.01, 0.3);
  cfg.seed = rng();
  cfg.run_offset = rng.uniform_index(16);
  return cfg;
}

/// Metering windows: the run itself (the production case), a window that
/// ends short of it and one that runs past it into the idle tail.
std::vector<util::Seconds> durations_for(const PowerTimeline& timeline,
                                         util::Xoshiro256& rng) {
  const double run = timeline.duration().value();
  return {timeline.duration(), util::Seconds(run * rng.uniform(0.3, 0.99)),
          util::Seconds(run * rng.uniform(1.01, 1.5) + 2.0)};
}

const std::vector<double> kIntervals = {1.0, 0.5, 0.3, 0.05};

void expect_same(const MeterReading& got, const ReferenceReading& want,
                 const std::string& where) {
  const auto& samples = got.trace.samples();
  ASSERT_EQ(samples.size(), want.samples.size()) << where;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_EQ(bits(samples[i].t.value()), bits(want.samples[i].t.value()))
        << where << " sample " << i;
    ASSERT_EQ(bits(samples[i].watts.value()),
              bits(want.samples[i].watts.value()))
        << where << " sample " << i;
  }
  EXPECT_EQ(bits(got.energy.value()), bits(want.energy.value())) << where;
  EXPECT_EQ(bits(got.duration.value()), bits(want.duration.value()))
      << where;
  EXPECT_EQ(bits(got.average_power.value()),
            bits(want.average_power.value()))
      << where;
}

void expect_same(const MeterReading& got, const MeterReading& want,
                 const std::string& where) {
  expect_same(got,
              ReferenceReading{want.trace.samples(), want.duration,
                               want.energy, want.average_power},
              where);
}

// ---------------------------------------------------------------- tests

TEST(MeterDifferential, WattsUpMatchesTheReferenceLoopBitwise) {
  util::Xoshiro256 rng(20120521);
  for (int trial = 0; trial < 120; ++trial) {
    const double dt = kIntervals[static_cast<std::size_t>(trial) % 3];
    const PowerTimeline timeline = generated_timeline(rng, dt);
    const auto source = reference_source(timeline);
    const WattsUpConfig cfg = generated_config(rng, dt);
    WattsUpMeter meter(cfg);
    std::uint64_t run = cfg.run_offset;
    for (const util::Seconds duration : durations_for(timeline, rng)) {
      const MeterReading got = meter.measure(timeline.steps(), duration);
      expect_same(got, reference_wattsup(cfg, ++run, source, duration),
                  "trial " + std::to_string(trial));
    }
  }
}

TEST(MeterDifferential, ModelMeterMatchesTheReferenceLoopBitwise) {
  util::Xoshiro256 rng(1);
  for (int trial = 0; trial < 80; ++trial) {
    const double dt = kIntervals[static_cast<std::size_t>(trial) % 4];
    const PowerTimeline timeline = generated_timeline(rng, dt);
    const auto source = reference_source(timeline);
    ModelMeter meter(util::seconds(dt));
    for (const util::Seconds duration : durations_for(timeline, rng)) {
      expect_same(meter.measure(timeline.steps(), duration),
                  reference_model(util::Seconds(dt), source, duration),
                  "trial " + std::to_string(trial));
    }
  }
}

TEST(MeterDifferential, SegmentEndsOnSampleTimes) {
  // Every segment lasts a whole number of sample intervals, so every
  // segment end is also a sample time: the sample there must read the next
  // segment (and the idle cluster at the run's end), as power_at did.
  const ClusterPowerModel model = sim::fire_cluster().power_model();
  std::vector<UtilizationSegment> segments;
  for (std::size_t k = 0; k < 12; ++k) {
    segments.push_back({util::Seconds(static_cast<double>(1 + k % 3)),
                        {0.1 * static_cast<double>(k % 10), 0.5, 0.2, 0.1},
                        k % (model.node_count() + 1)});
  }
  const PowerTimeline timeline(model, segments);
  const auto source = reference_source(timeline);
  WattsUpConfig cfg;
  cfg.accuracy_pct = 0.0;
  cfg.noise_pct = 0.0;
  cfg.resolution = util::Watts(0.0);
  WattsUpMeter meter(cfg);
  const MeterReading got = meter.measure(timeline.steps(), timeline.duration());
  expect_same(got, reference_wattsup(cfg, 1, source, timeline.duration()),
              "integer segments");
  for (const PowerSample& s : got.trace.samples()) {
    EXPECT_EQ(bits(s.watts.value()), bits(timeline.power_at(s.t).value()));
  }
}

TEST(MeterDifferential, DecoratorsSeeTheSameReadings) {
  util::Xoshiro256 rng(7);
  harness::FaultSpec spec;
  spec.dropout_burst_rate = 0.3;
  spec.stuck_rate = 0.3;
  spec.spike_rate = 0.3;
  const harness::FaultPlan plan(spec);
  harness::RobustConfig robust;
  for (int trial = 0; trial < 40; ++trial) {
    const PowerTimeline timeline = generated_timeline(rng, 1.0);
    const WattsUpConfig cfg = generated_config(rng, 1.0);
    const auto offset = static_cast<std::uint64_t>(trial);

    WattsUpMeter fast_inner(cfg);
    harness::FaultyMeter fast_faulty(fast_inner, plan, offset);
    harness::ValidatingMeter fast(fast_faulty, robust);
    ReferenceMeter ref_inner(timeline, cfg);
    harness::FaultyMeter ref_faulty(ref_inner, plan, offset);
    harness::ValidatingMeter ref(ref_faulty, robust);

    for (const util::Seconds duration : durations_for(timeline, rng)) {
      const std::string where = "trial " + std::to_string(trial);
      bool fast_rejected = false;
      bool ref_rejected = false;
      MeterReading got;
      MeterReading want;
      try {
        got = fast.measure(timeline.steps(), duration);
      } catch (const harness::ReadingRejected&) {
        fast_rejected = true;
      }
      try {
        want = ref.measure(timeline.steps(), duration);
      } catch (const harness::ReadingRejected&) {
        ref_rejected = true;
      }
      ASSERT_EQ(fast_rejected, ref_rejected) << where;
      if (fast_rejected) continue;
      expect_same(got, want, where);
      // A faulted trace is re-summarized by the running trapezoid; it must
      // still equal the original separate-pass summary of those samples.
      expect_same(got, reference_summary(got.trace.samples()), where);
    }
    EXPECT_EQ(fast_faulty.faults_applied(), ref_faulty.faults_applied());
    EXPECT_EQ(fast.rejects(), ref.rejects());
  }
}

}  // namespace
}  // namespace tgi::power
