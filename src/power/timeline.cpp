#include "power/timeline.h"

#include <algorithm>

#include "util/error.h"

namespace tgi::power {

util::Watts PowerSteps::at(util::Seconds t) const {
  const auto it = std::upper_bound(ends.begin(), ends.end(), t.value());
  return it == ends.end()
             ? after_end
             : watts[static_cast<std::size_t>(it - ends.begin())];
}

PowerTimeline::PowerTimeline(ClusterPowerModel model,
                             std::vector<UtilizationSegment> segments)
    : model_(std::move(model)), segments_(std::move(segments)) {
  TGI_REQUIRE(!segments_.empty(), "timeline needs at least one segment");
  double t = 0.0;
  cumulative_end_.reserve(segments_.size());
  segment_watts_.reserve(segments_.size());
  for (const auto& seg : segments_) {
    TGI_REQUIRE(seg.duration.value() > 0.0,
                "segment duration must be positive");
    TGI_REQUIRE(seg.active_nodes <= model_.node_count(),
                "segment uses more nodes than the cluster has");
    t += seg.duration.value();
    cumulative_end_.push_back(t);
    segment_watts_.push_back(
        model_.wall_power(seg.utilization, seg.active_nodes));
  }
  idle_watts_ = model_.idle_wall_power();
  total_ = util::Seconds(t);
}

util::Watts PowerTimeline::power_at(util::Seconds t) const {
  TGI_REQUIRE(t.value() >= 0.0, "negative time");
  return steps().at(t);
}

util::Joules PowerTimeline::exact_energy() const {
  util::Joules total{0.0};
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    total += segment_watts_[i] * segments_[i].duration;
  }
  return total;
}

util::Watts PowerTimeline::exact_average_power() const {
  return exact_energy() / total_;
}

}  // namespace tgi::power
