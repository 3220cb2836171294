// Deterministic fault injection for the measurement pipeline.
//
// The paper's methodology assumes every measurement succeeds; its own
// instrument does not. The Watts Up? PRO ES drops serial-link samples,
// readings stick, gains spike, and whole benchmark runs fail or stall on
// production systems (the CEEC experience report in PAPERS.md treats flaky
// power telemetry as the norm). This module injects those failures *on
// purpose* so the recovery layer (harness/robust.h) has something real to
// absorb — and so tests can pin the degraded paths bit-exactly.
//
// Determinism contract (same style as WattsUpConfig::run_offset): every
// fault decision is a pure function of (FaultSpec::seed, an index) — a
// fresh util::Xoshiro256 is derived per decision, never shared — so plans
// are safe to consult from any thread in any order, and a sweep with a
// fixed FaultPlan is bit-identical at threads=1 and threads=8.
#pragma once

#include <cstdint>
#include <string>

#include "power/meter.h"
#include "power/trace.h"
#include "util/units.h"

namespace tgi::harness {

/// What can go wrong with one meter measurement.
enum class MeterFaultKind {
  kNone,
  kDropoutBurst,  ///< a contiguous window of interior samples is lost
  kStuckAt,       ///< the reading freezes at the window-entry value
  kGainSpike,     ///< samples in a window are scaled by a rogue gain
};

/// What can go wrong with one benchmark run attempt.
enum class RunFaultKind {
  kNone,
  kBenchmarkFailure,  ///< the run dies before producing a measurement
  kTimeout,           ///< the run stalls and is killed after a deadline
  kTruncatedTrace,    ///< the run finishes but the power log stops early
};

[[nodiscard]] const char* meter_fault_name(MeterFaultKind kind);
[[nodiscard]] const char* run_fault_name(RunFaultKind kind);

/// Fault rates and shape parameters. Rates are probabilities per
/// measurement (meter faults) or per run attempt (run faults); the three
/// rates in each group must sum to <= 1.
struct FaultSpec {
  /// P(a measurement suffers a dropout burst).
  double dropout_burst_rate = 0.0;
  /// P(a measurement has a stuck-at window).
  double stuck_rate = 0.0;
  /// P(a measurement has a gain-spike window).
  double spike_rate = 0.0;
  /// P(a run attempt fails outright).
  double failure_rate = 0.0;
  /// P(a run attempt stalls until the watchdog kills it).
  double timeout_rate = 0.0;
  /// P(a run attempt's power log is truncated).
  double truncation_rate = 0.0;
  /// Fault-window length as a fraction of the trace (bursts, stuck, spike).
  double window_fraction = 0.2;
  /// Rogue gain drawn uniformly in [1/spike_gain_max, spike_gain_max]
  /// excluding the neighbourhood of 1 — spikes go up or down.
  double spike_gain_max = 3.0;
  /// Tail fraction of the trace lost when a run's log is truncated.
  double truncation_fraction = 0.35;
  /// Seed for all fault decision streams.
  std::uint64_t seed = 0xfa017fa017fa017fULL;

  /// True when any fault rate is nonzero.
  [[nodiscard]] bool enabled() const;
  /// Throws PreconditionError unless rates/fractions are well-formed.
  void validate() const;
};

/// Parses "key=value,key=value" fault specs for the --faults CLI knob,
/// e.g. "dropout=0.2,stuck=0.1,failure=0.05,seed=7". Keys: dropout,
/// stuck, spike, failure, timeout, truncation, window, gain, tail, seed.
/// Throws PreconditionError on unknown keys or malformed values.
[[nodiscard]] FaultSpec parse_fault_spec(const std::string& text);

/// One-line human-readable summary ("dropout=0.2 stuck=0.1 seed=7").
[[nodiscard]] std::string fault_spec_summary(const FaultSpec& spec);

/// A concrete meter fault: kind plus its drawn window/gain parameters
/// (fractions of the measured trace, so one decision applies to any
/// duration).
struct MeterFault {
  MeterFaultKind kind = MeterFaultKind::kNone;
  double window_start = 0.0;   ///< in [0, 1 - window_length]
  double window_length = 0.0;  ///< in (0, 1)
  double gain = 1.0;           ///< kGainSpike only
};

/// A concrete run fault.
struct RunFault {
  RunFaultKind kind = RunFaultKind::kNone;
};

/// The deterministic fault schedule. Stateless and cheap to copy; every
/// decision derives a fresh RNG from (seed, indices), so calls are
/// thread-safe and order-independent by construction.
class FaultPlan {
 public:
  explicit FaultPlan(FaultSpec spec = {});

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }
  [[nodiscard]] bool enabled() const { return spec_.enabled(); }

  /// The fault (if any) afflicting global measurement `measurement_index`.
  [[nodiscard]] MeterFault meter_fault(std::uint64_t measurement_index) const;

  /// The fault (if any) afflicting attempt `attempt` of benchmark
  /// `benchmark_index` at sweep point `point_index`.
  [[nodiscard]] RunFault run_fault(std::uint64_t point_index,
                                   std::uint64_t benchmark_index,
                                   std::uint64_t attempt) const;

 private:
  FaultSpec spec_;
};

/// Applies `fault` to a trace (pure; exposed for tests). Dropout bursts
/// never remove the first or last sample, so the trace still spans the
/// run; the result always keeps >= 2 samples.
[[nodiscard]] power::PowerTrace apply_meter_fault(
    const power::PowerTrace& trace, const MeterFault& fault);

/// Drops the trailing `tail_fraction` of a trace's time span (the power
/// log stopped early). Keeps >= 2 samples.
[[nodiscard]] power::PowerTrace truncate_trace(const power::PowerTrace& trace,
                                               double tail_fraction);

/// Decorator that injects meter faults into any PowerMeter's readings.
///
/// Like WattsUpMeter, the decorator keys each measurement's fault decision
/// off an internal counter starting at `measurement_offset`, so a fresh
/// decorator at offset k behaves exactly like one that already performed k
/// measurements — the property ParallelSweep's per-point meters rely on.
class FaultyMeter final : public power::PowerMeter {
 public:
  /// `inner` must outlive the decorator.
  FaultyMeter(power::PowerMeter& inner, FaultPlan plan,
              std::uint64_t measurement_offset = 0);

  [[nodiscard]] power::MeterReading measure(const power::PowerSteps& source,
                                            util::Seconds duration) override;
  [[nodiscard]] std::string name() const override;

  /// Forces the NEXT measurement's trace to lose its trailing
  /// `tail_fraction` (the run-level kTruncatedTrace fault; one-shot).
  void arm_truncation(double tail_fraction);

  /// Clears any armed truncation. Callers that arm per attempt MUST
  /// disarm before the next attempt: if the measurement that was meant to
  /// consume the truncation never happens (the inner meter threw, or the
  /// attempt died before metering), the stale charge would otherwise fire
  /// on an unrelated later measurement.
  void disarm_truncation() { armed_truncation_ = 0.0; }

  /// True while a truncation is armed but not yet consumed.
  [[nodiscard]] bool truncation_armed() const {
    return armed_truncation_ > 0.0;
  }

  /// Meter faults actually applied so far (kNone decisions not counted).
  [[nodiscard]] std::size_t faults_applied() const { return faults_applied_; }

 private:
  power::PowerMeter& inner_;
  FaultPlan plan_;
  std::uint64_t counter_ = 0;
  double armed_truncation_ = 0.0;
  std::size_t faults_applied_ = 0;
};

}  // namespace tgi::harness
