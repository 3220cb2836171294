// Owning test signals for the meters' step view (power::PowerSteps).
//
// A meter samples at t_i = min(i * dt, duration), i = 0..ceil(duration/dt).
// sampled_steps(f, dt, duration) builds the staircase whose value at every
// one of those times is exactly f(t_i): segment i ends at t_{i+1} and reads
// f(t_i), and the signal reads f(t_last) from the last sample on. A meter
// with that interval therefore observes the same watts as it would sampling
// the function f directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "power/timeline.h"

namespace tgi::test_support {

/// Storage plus view of a piecewise-constant test signal.
struct StepSignal {
  std::vector<double> ends;
  std::vector<util::Watts> watts;
  util::Watts after_end{0.0};

  [[nodiscard]] power::PowerSteps view() const {
    return {ends, watts, after_end};
  }
};

/// The staircase a meter sampling every `dt` seconds over `duration` sees as
/// f: `f` maps seconds to watts.
template <typename F>
[[nodiscard]] StepSignal sampled_steps(F f, double dt, double duration) {
  const auto steps = static_cast<std::size_t>(std::ceil(duration / dt));
  const auto sample_time = [&](std::size_t i) {
    return std::min(static_cast<double>(i) * dt, duration);
  };
  StepSignal signal;
  for (std::size_t i = 0; i < steps; ++i) {
    signal.ends.push_back(sample_time(i + 1));
    signal.watts.push_back(util::Watts(f(sample_time(i))));
  }
  signal.after_end = util::Watts(f(sample_time(steps)));
  return signal;
}

}  // namespace tgi::test_support
