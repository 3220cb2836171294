#include "power/trace.h"

#include <algorithm>

#include "util/error.h"

namespace tgi::power {

void PowerTrace::reject_negative_power() {
  util::detail::throw_precondition("sample.watts.value() >= 0.0", __FILE__,
                                   __LINE__,
                                   "power sample must be non-negative");
}

void PowerTrace::reject_time_travel() {
  util::detail::throw_precondition("sample.t >= prev.t", __FILE__, __LINE__,
                                   "sample timestamps must be non-decreasing");
}

util::Seconds PowerTrace::duration() const {
  TGI_REQUIRE(!samples_.empty(), "duration of empty trace");
  return samples_.back().t - samples_.front().t;
}

util::Joules PowerTrace::energy() const {
  TGI_REQUIRE(samples_.size() >= 2, "energy needs >= 2 samples");
  return energy_;
}

util::Watts PowerTrace::average_power() const {
  const util::Seconds span = duration();
  TGI_REQUIRE(span.value() > 0.0, "average power of zero-length trace");
  return energy() / span;
}

util::Watts PowerTrace::max_power() const {
  TGI_REQUIRE(!samples_.empty(), "max of empty trace");
  return std::max_element(samples_.begin(), samples_.end(),
                          [](const PowerSample& a, const PowerSample& b) {
                            return a.watts < b.watts;
                          })
      ->watts;
}

util::Watts PowerTrace::min_power() const {
  TGI_REQUIRE(!samples_.empty(), "min of empty trace");
  return std::min_element(samples_.begin(), samples_.end(),
                          [](const PowerSample& a, const PowerSample& b) {
                            return a.watts < b.watts;
                          })
      ->watts;
}

}  // namespace tgi::power
