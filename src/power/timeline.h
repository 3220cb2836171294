// Piecewise-constant power timelines: the bridge from the execution
// simulator to the power meter.
//
// The simulator decomposes a benchmark run into phases, each with a
// duration and a component-utilization profile. A PowerTimeline turns that
// phase list (plus the cluster power model) into a step function Watts(t)
// that a meter can sample, exactly as the physical Watts Up? meter sampled
// the Fire cluster's wall outlet in the paper's Figure 1 setup.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "power/node_model.h"
#include "util/error.h"
#include "util/units.h"

namespace tgi::power {

/// Non-owning view of a piecewise-constant wall-power signal — what a meter
/// observes. Segment k covers [ends[k-1], ends[k]) seconds (segment 0 starts
/// at 0) and reads watts[k]; at and past the last end, or everywhere when
/// there are no segments, the signal reads `after_end`. Ends are
/// non-decreasing and `ends` and `watts` have the same length. The storage
/// the spans point into must outlive the view.
struct PowerSteps {
  std::span<const double> ends;
  std::span<const util::Watts> watts;
  util::Watts after_end{0.0};

  /// A signal that reads `level` at every time.
  [[nodiscard]] static PowerSteps constant(util::Watts level) {
    return {{}, {}, level};
  }

  /// Wall power at time `t` >= 0 (binary search over the ends).
  [[nodiscard]] util::Watts at(util::Seconds t) const;
};

/// Forward cursor over a PowerSteps view for non-decreasing query times.
/// Each segment boundary is passed once, so reading a whole run costs
/// O(queries + segments) and one compare per query in the common case.
class StepCursor {
 public:
  explicit StepCursor(const PowerSteps& steps) : steps_(steps) {
    TGI_REQUIRE(steps_.ends.size() == steps_.watts.size(),
                "step view needs one power level per segment");
    load();
  }

  /// Wall power at `t`; `t` must not decrease between calls.
  [[nodiscard]] util::Watts at(util::Seconds t) {
    while (t.value() >= end_) {
      ++next_;
      load();
    }
    return level_;
  }

 private:
  void load() {
    if (next_ < steps_.ends.size()) {
      end_ = steps_.ends[next_];
      level_ = steps_.watts[next_];
    } else {
      end_ = std::numeric_limits<double>::infinity();
      level_ = steps_.after_end;
    }
  }

  PowerSteps steps_;
  std::size_t next_ = 0;
  double end_ = 0.0;  // end of the current segment, in seconds
  util::Watts level_{0.0};
};

/// One simulated execution phase on the cluster.
struct UtilizationSegment {
  util::Seconds duration{0.0};
  ComponentUtilization utilization;
  /// Nodes participating in this phase; the rest idle at baseline power.
  std::size_t active_nodes = 0;
};

/// A sequence of utilization segments bound to a cluster power model. The
/// wall power of every segment, and of the idle cluster after the run, is
/// evaluated once at construction.
class PowerTimeline {
 public:
  PowerTimeline(ClusterPowerModel model,
                std::vector<UtilizationSegment> segments);

  /// Total duration of all segments.
  [[nodiscard]] util::Seconds duration() const { return total_; }

  /// Instantaneous wall power at time `t`. For t past the end, the cluster
  /// is idle (the run has finished; the meter keeps reading baseline).
  [[nodiscard]] util::Watts power_at(util::Seconds t) const;

  /// Exact energy over the full timeline (piecewise-constant, so the
  /// integral is a finite sum — no quadrature error). This is the ground
  /// truth the WattsUpMeter's sampled estimate is tested against.
  [[nodiscard]] util::Joules exact_energy() const;

  /// Exact time-weighted average power over the timeline.
  [[nodiscard]] util::Watts exact_average_power() const;

  /// The step view a PowerMeter samples; valid while this timeline lives.
  [[nodiscard]] PowerSteps steps() const {
    return {cumulative_end_, segment_watts_, idle_watts_};
  }

  [[nodiscard]] const std::vector<UtilizationSegment>& segments() const {
    return segments_;
  }
  [[nodiscard]] const ClusterPowerModel& model() const { return model_; }

 private:
  ClusterPowerModel model_;
  std::vector<UtilizationSegment> segments_;
  std::vector<double> cumulative_end_;  // prefix sums of segment durations
  std::vector<util::Watts> segment_watts_;  // wall power of each segment
  util::Watts idle_watts_{0.0};  // wall power after the last segment
  util::Seconds total_{0.0};
};

}  // namespace tgi::power
