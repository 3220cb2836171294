#include "power/meter.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace tgi::power {

MeterReading summarize(PowerTrace trace) {
  TGI_REQUIRE(trace.size() >= 2, "meter produced fewer than 2 samples");
  MeterReading reading;
  reading.duration = trace.duration();
  reading.energy = trace.energy();
  reading.average_power = trace.average_power();
  reading.trace = std::move(trace);
  return reading;
}

WattsUpMeter::WattsUpMeter(WattsUpConfig config)
    : config_(config), run_counter_(config.run_offset) {
  TGI_REQUIRE(config_.sample_interval.value() > 0.0,
              "sample interval must be positive");
  TGI_REQUIRE(config_.resolution.value() >= 0.0,
              "resolution must be non-negative");
  TGI_REQUIRE(config_.accuracy_pct >= 0.0 && config_.noise_pct >= 0.0,
              "error percentages must be non-negative");
  TGI_REQUIRE(config_.dropout_rate >= 0.0 && config_.dropout_rate < 0.5,
              "dropout rate must be in [0, 0.5)");
}

MeterReading WattsUpMeter::measure(const PowerSteps& source,
                                   util::Seconds duration) {
  TGI_REQUIRE(duration.value() > 0.0, "measurement duration must be > 0");
  // Each `measure` call is a fresh plug-in of the instrument: a new fixed
  // gain error is drawn (unit-to-unit/per-session calibration error), then
  // per-sample noise rides on top. Advancing run_counter_ keeps repeated
  // measurements in one sweep independent yet reproducible.
  util::Xoshiro256 rng(config_.seed + 0x632be59bd9b4e019ULL * ++run_counter_);
  const double gain =
      1.0 + rng.uniform(-config_.accuracy_pct, config_.accuracy_pct) / 100.0;

  const double dt = config_.sample_interval.value();
  const double end = duration.value();
  const double q = config_.resolution.value();
  const auto steps = static_cast<std::size_t>(std::ceil(end / dt));
  PowerTrace trace;
  trace.reserve(steps + 1);
  StepCursor power(source);
  for (std::size_t i = 0; i <= steps; ++i) {
    const util::Seconds t(std::min(static_cast<double>(i) * dt, end));
    // Serial-link dropouts lose interior samples; the first and last are
    // always kept so the reading spans the run.
    if (config_.dropout_rate > 0.0 && i != 0 && i != steps &&
        rng.uniform() < config_.dropout_rate) {
      continue;
    }
    const double true_watts = power.at(t).value();
    TGI_CHECK(true_watts >= 0.0, "source returned negative power");
    double observed = true_watts * gain;
    if (config_.noise_pct > 0.0) {
      observed *= 1.0 + rng.normal(0.0, config_.noise_pct / 100.0);
    }
    if (q > 0.0) observed = std::round(observed / q) * q;
    trace.add({t, util::Watts(std::max(observed, 0.0))});
  }
  return summarize(std::move(trace));
}

std::string WattsUpMeter::name() const { return "WattsUp-PRO-ES(sim)"; }

ModelMeter::ModelMeter(util::Seconds sample_interval)
    : sample_interval_(sample_interval) {
  TGI_REQUIRE(sample_interval_.value() > 0.0,
              "sample interval must be positive");
}

MeterReading ModelMeter::measure(const PowerSteps& source,
                                 util::Seconds duration) {
  TGI_REQUIRE(duration.value() > 0.0, "measurement duration must be > 0");
  const double dt = sample_interval_.value();
  const double end = duration.value();
  const auto steps = static_cast<std::size_t>(std::ceil(end / dt));
  PowerTrace trace;
  trace.reserve(steps + 1);
  StepCursor power(source);
  for (std::size_t i = 0; i <= steps; ++i) {
    const util::Seconds t(std::min(static_cast<double>(i) * dt, end));
    trace.add({t, power.at(t)});
  }
  return summarize(std::move(trace));
}

std::string ModelMeter::name() const { return "ModelMeter(exact)"; }

}  // namespace tgi::power
