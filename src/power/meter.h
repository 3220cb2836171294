// Power meters: instruments that observe a power signal over a run.
//
// The paper measures energy with a Watts Up? PRO ES plug meter between the
// outlet and the system (Figure 1). WattsUpMeter reproduces that
// instrument's observable behaviour — 1 Hz sampling, finite resolution,
// ±1.5 % accuracy class — so that harness code written against `PowerMeter`
// would run unchanged against a driver for the physical device. ModelMeter
// is the "perfect instrument" used for ground truth and ablations.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "power/timeline.h"
#include "power/trace.h"
#include "util/units.h"

namespace tgi::power {

/// Summary a meter reports for one observed run.
struct MeterReading {
  PowerTrace trace;
  util::Seconds duration{0.0};
  util::Joules energy{0.0};
  util::Watts average_power{0.0};
};

/// Abstract instrument that watches a power signal for a fixed duration.
class PowerMeter {
 public:
  virtual ~PowerMeter() = default;

  /// Observes `source` over [0, duration] and reports the measurement.
  /// Precondition: duration > 0.
  [[nodiscard]] virtual MeterReading measure(const PowerSteps& source,
                                             util::Seconds duration) = 0;

  /// Human-readable instrument name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Configuration of the simulated Watts Up? PRO ES.
struct WattsUpConfig {
  /// Sampling period; the real device logs at 1 Hz.
  util::Seconds sample_interval{1.0};
  /// Display/record resolution: readings quantize to this step (0.1 W).
  util::Watts resolution{0.1};
  /// Accuracy class: each run draws a fixed gain error uniform in
  /// ±accuracy_pct (1.5 % for the PRO ES per its datasheet).
  double accuracy_pct = 1.5;
  /// Per-sample zero-mean jitter as a fraction of the reading (noise floor).
  double noise_pct = 0.2;
  /// Probability that a sample is lost (serial-link dropouts on the real
  /// instrument). Lost samples leave gaps in the trace; the trapezoidal
  /// integration bridges them.
  double dropout_rate = 0.0;
  /// Seed for the instrument's error draws (reproducible experiments).
  std::uint64_t seed = 0x9e3779b9ULL;
  /// Starting value of the internal run counter. Each measure() call
  /// advances the counter and derives its RNG stream from (seed, counter),
  /// so a fresh meter constructed with run_offset = k behaves exactly like
  /// a meter that already performed k measurements. harness::ParallelSweep
  /// uses this to give every sweep point its own meter whose error draws
  /// are bit-identical to one meter shared across a serial sweep.
  std::uint64_t run_offset = 0;
};

/// Simulated plug meter with the Watts Up? PRO ES error model.
class WattsUpMeter final : public PowerMeter {
 public:
  explicit WattsUpMeter(WattsUpConfig config = {});

  [[nodiscard]] MeterReading measure(const PowerSteps& source,
                                     util::Seconds duration) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const WattsUpConfig& config() const { return config_; }

 private:
  WattsUpConfig config_;
  std::uint64_t run_counter_ = 0;
};

/// Idealized meter: dense sampling, no quantization, no error. Used as
/// ground truth in tests and for the meter-fidelity ablation.
class ModelMeter final : public PowerMeter {
 public:
  /// `sample_interval` controls integration resolution only.
  explicit ModelMeter(util::Seconds sample_interval = util::Seconds(0.05));

  [[nodiscard]] MeterReading measure(const PowerSteps& source,
                                     util::Seconds duration) override;
  [[nodiscard]] std::string name() const override;

 private:
  util::Seconds sample_interval_;
};

/// Convenience: build the reading summary from a finished trace (O(1): the
/// trace keeps its energy integral as it grows).
[[nodiscard]] MeterReading summarize(PowerTrace trace);

}  // namespace tgi::power
