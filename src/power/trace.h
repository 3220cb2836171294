// Time-stamped power traces and energy integration.
#pragma once

#include <cstddef>
#include <vector>

#include "util/units.h"

namespace tgi::power {

/// One meter sample: instantaneous wall power at time `t` since run start.
struct PowerSample {
  util::Seconds t{0.0};
  util::Watts watts{0.0};
};

/// An ordered sequence of power samples with derived quantities.
///
/// Energy is the trapezoidal integral of the samples — the same numeric
/// integration a Watts Up? meter performs internally — and average power is
/// energy divided by the spanned duration, i.e. *time-weighted*, so uneven
/// sampling does not bias it. The integral is accumulated as samples are
/// appended, interval by interval in sample order, so reading it is O(1).
class PowerTrace {
 public:
  PowerTrace() = default;

  /// Reserves room for `samples` samples (meters know their count upfront).
  void reserve(std::size_t samples) { samples_.reserve(samples); }

  /// Appends a sample; the power must be non-negative and time stamps
  /// non-decreasing.
  void add(PowerSample sample) {
    if (!(sample.watts.value() >= 0.0)) reject_negative_power();
    if (!samples_.empty()) {
      const PowerSample& prev = samples_.back();
      if (!(sample.t >= prev.t)) reject_time_travel();
      energy_ += (sample.watts + prev.watts) * 0.5 * (sample.t - prev.t);
    }
    samples_.push_back(sample);
  }

  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] const std::vector<PowerSample>& samples() const {
    return samples_;
  }

  /// Time spanned from first to last sample. Precondition: size() >= 1.
  [[nodiscard]] util::Seconds duration() const;

  /// Trapezoidal energy integral. Precondition: size() >= 2.
  [[nodiscard]] util::Joules energy() const;

  /// Time-weighted average power = energy() / duration().
  /// Precondition: size() >= 2 and duration() > 0.
  [[nodiscard]] util::Watts average_power() const;

  /// Extremes over the trace. Precondition: size() >= 1.
  [[nodiscard]] util::Watts max_power() const;
  [[nodiscard]] util::Watts min_power() const;

 private:
  [[noreturn]] static void reject_negative_power();
  [[noreturn]] static void reject_time_travel();

  std::vector<PowerSample> samples_;
  util::Joules energy_{0.0};
};

}  // namespace tgi::power
