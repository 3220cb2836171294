// Measurement robustness: validation, bounded retry, graceful degradation.
//
// harness/faults.h makes the measurement pipeline fail on purpose; this
// module is the policy that absorbs it, mirroring what an operator running
// the paper's procedure on real hardware does by hand: eyeball the power
// log for gaps and garbage, rerun a benchmark that died or stalled, and —
// when a benchmark simply will not complete — publish the suite without
// it, renormalizing the weights over the survivors (core::TgiCalculator::
// compute_partial) and saying so.
//
// Determinism: retries and degradation decisions depend only on the
// FaultPlan (pure functions of seed and indices) and on the readings,
// never on wall-clock time. Backoff is *accounted*, not slept — the
// simulated operator's lost minutes are a reported cost, so fault sweeps
// stay fast and bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "harness/faults.h"
#include "harness/suite.h"
#include "obs/trace.h"
#include "power/meter.h"
#include "util/error.h"
#include "util/units.h"

namespace tgi::harness {

/// Recovery-policy knobs.
struct RobustConfig {
  /// Retries per benchmark after the first attempt (attempts = 1 + this).
  std::size_t max_retries = 2;
  /// Deterministic exponential backoff: retry r charges base * 2^(r-1) to
  /// the point's backoff account (never slept).
  util::Seconds backoff_base{5.0};
  /// Wall time charged when an attempt stalls until the watchdog kills it.
  util::Seconds timeout_stall{120.0};
  /// Run telemetry checks on every reading (coverage/gap/spike/stuck).
  bool validate_readings = true;
  /// Reject a reading spanning less than this fraction of the run.
  double min_coverage = 0.9;
  /// Reject a reading whose largest inter-sample gap exceeds this fraction
  /// of the run (catches dropout bursts; lone dropouts pass).
  double max_gap_fraction = 0.15;
  /// Reject a reading with two or more *interior* adjacent-sample level
  /// jumps exceeding this ratio — a gain-spike window enters and exits
  /// with jumps of at least the minimum rogue gain (1.5x), while the
  /// simulated suite's legitimate phase transitions stay far gentler.
  /// (A global z-score cannot catch window faults: a 20% window inflates
  /// the stddev it is judged against, while legitimate multi-phase traces
  /// reach 13+ sigma.) Boundary intervals are excluded; values <= 1
  /// disable the check.
  double spike_jump_ratio = 1.4;
  /// Reject a reading with more than this many consecutive bit-identical
  /// samples (catches stuck-at readings on noisy instruments). 0 disables;
  /// keep it off for noiseless meters (ModelMeter's flat phases repeat
  /// values legitimately).
  std::size_t stuck_run_limit = 0;

  void validate() const;
};

/// Thrown by ValidatingMeter when a reading fails a telemetry check.
class ReadingRejected : public util::TgiError {
 public:
  explicit ReadingRejected(const std::string& what) : util::TgiError(what) {}
};

/// The telemetry checks, as a pure function (exposed for tests): returns
/// an empty string when `reading` looks sound for a run of
/// `expected_duration`, else a human-readable defect description.
[[nodiscard]] std::string reading_defect(const power::MeterReading& reading,
                                         util::Seconds expected_duration,
                                         const RobustConfig& config);

/// Decorator that throws ReadingRejected instead of handing a defective
/// reading to the suite runner.
class ValidatingMeter final : public power::PowerMeter {
 public:
  /// `inner` must outlive the decorator.
  ValidatingMeter(power::PowerMeter& inner, RobustConfig config);

  [[nodiscard]] power::MeterReading measure(const power::PowerSteps& source,
                                            util::Seconds duration) override;
  [[nodiscard]] std::string name() const override;

  /// Readings rejected so far.
  [[nodiscard]] std::size_t rejects() const { return rejects_; }

  /// Attaches (or detaches, with nullptr) a metric registry: every
  /// validated reading adds its sample count to the "samples_validated"
  /// counter. Observational only; must outlive the meter or be detached.
  void attach_metrics(obs::MetricRegistry* metrics) { metrics_ = metrics; }

 private:
  power::PowerMeter& inner_;
  RobustConfig config_;
  std::size_t rejects_ = 0;
  obs::MetricRegistry* metrics_ = nullptr;
};

/// What one robust suite point went through.
struct PointCounters {
  std::size_t attempts = 0;           ///< benchmark run attempts, total
  std::size_t retries = 0;            ///< attempts beyond the first
  std::size_t run_faults = 0;         ///< injected run-level faults hit
  std::size_t meter_faults = 0;       ///< injected meter faults applied
  std::size_t rejected_readings = 0;  ///< readings the validator refused
  std::size_t dropped_benchmarks = 0; ///< benchmarks lost after max retries
  util::Seconds backoff{0.0};         ///< accounted retry backoff
  util::Seconds stalled{0.0};         ///< accounted timeout stalls
};

/// A sweep point that survived the fault plane: the measurements that
/// completed, the benchmarks that did not, and the cost of getting there.
struct RobustSuitePoint {
  SuitePoint point;                  ///< surviving measurements only
  std::vector<std::string> missing;  ///< benchmarks dropped after retries
  PointCounters counters;

  [[nodiscard]] bool degraded() const { return !missing.empty(); }
};

/// Meter measurements a robust sweep point may consume at most — the
/// WattsUpConfig::run_offset / FaultyMeter stride that keeps per-point
/// instruments on non-overlapping streams even when every attempt retries.
[[nodiscard]] std::size_t robust_measurements_per_point(
    const SuiteConfig& suite, const RobustConfig& robust);

/// SuiteRunner wrapped in the fault plane and the recovery policy.
///
/// Meter stack: inner meter -> FaultyMeter (injects the plan's meter
/// faults; measurement indices start at point_index *
/// robust_measurements_per_point) -> ValidatingMeter (telemetry checks) ->
/// SuiteRunner. Run-level faults are consulted per (point, benchmark,
/// attempt); failed or rejected attempts retry with accounted backoff up
/// to max_retries, then the benchmark is dropped and recorded in
/// `missing`. Exceptions other than ReadingRejected propagate — a real
/// bug must not be retried into silence.
class RobustSuiteRunner {
 public:
  /// `meter` must outlive the runner. `point_index` selects the fault and
  /// meter streams for this sweep point.
  RobustSuiteRunner(sim::ClusterSpec cluster, power::PowerMeter& meter,
                    FaultPlan plan, RobustConfig robust = {},
                    SuiteConfig suite = {}, std::size_t point_index = 0);

  /// The paper suite (suite_benchmarks(config)) at one scale, run through
  /// the fault plane and the recovery policy. Exactly equivalent to
  /// begin_point; run_member for each roster index in order; finish_point.
  [[nodiscard]] RobustSuitePoint run_suite(std::size_t processes);

  /// Split form of run_suite for the task-graph executor (DESIGN.md §12):
  /// a robust point's members form a dependency CHAIN, not a fan-out,
  /// because the FaultyMeter stream is a serial per-point resource (a
  /// failed or timed-out attempt consumes no measurement, so member b's
  /// meter position depends on what members 0..b-1 actually consumed).
  /// Call begin_point once, then run_member for each suite_benchmarks()
  /// index in ascending order, then finish_point — any other order is a
  /// caller bug. The serial run_suite is this exact sequence, so the two
  /// paths cannot drift.
  void begin_point(RobustSuitePoint& out, std::size_t processes);
  void run_member(RobustSuitePoint& out, std::size_t member,
                  std::size_t processes);
  void finish_point(RobustSuitePoint& out);

  [[nodiscard]] const sim::ClusterSpec& cluster() const {
    return runner_.cluster();
  }

  /// Attaches (or detaches, with nullptr) a trace recorder. The robust
  /// layer records fault and recovery events (failures, stalls, rejected
  /// readings, backoff) on top of the SuiteRunner's benchmark spans, and
  /// mirrors PointCounters into the recorder's metric registry.
  /// Observational only; the recorder must outlive the runner.
  void attach_recorder(obs::PointRecorder* recorder);

 private:
  FaultPlan plan_;
  RobustConfig robust_;
  SuiteConfig suite_;
  std::size_t point_index_;
  /// FaultyMeter counter snapshot taken by begin_point; finish_point turns
  /// it into the point's meter-fault delta.
  std::size_t meter_faults_before_ = 0;
  FaultyMeter faulty_;
  ValidatingMeter validating_;
  SuiteRunner runner_;
  obs::PointRecorder* recorder_ = nullptr;
};

}  // namespace tgi::harness
