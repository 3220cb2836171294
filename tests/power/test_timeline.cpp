// Utilization timelines: segment lookup, exact energy and the step view.
#include "power/timeline.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.h"

namespace tgi::power {
namespace {

NodePowerSpec simple_node() {
  NodePowerSpec spec;
  spec.cpu = {.idle = util::watts(10.0),
              .max_load = util::watts(50.0),
              .nominal_ghz = 2.0};
  spec.sockets = 1;
  spec.memory = {.background = util::watts(5.0),
                 .max_active = util::watts(15.0)};
  spec.disk = {.idle = util::watts(2.0), .active = util::watts(6.0)};
  spec.disks = 1;
  spec.nic = {.idle = util::watts(1.0), .active = util::watts(3.0)};
  spec.board_overhead = util::watts(12.0);
  spec.psu = {.rated_dc = util::watts(300.0)};
  return spec;
}

ClusterPowerModel simple_cluster(std::size_t nodes = 2) {
  return {NodePowerModel(simple_node()), nodes, util::watts(20.0)};
}

TEST(PowerTimeline, SegmentLookup) {
  const ComponentUtilization busy{1.0, 1.0, 1.0, 1.0};
  const PowerTimeline timeline(
      simple_cluster(),
      {{util::seconds(2.0), ComponentUtilization::idle(), 2},
       {util::seconds(3.0), busy, 2}});
  EXPECT_DOUBLE_EQ(timeline.duration().value(), 5.0);
  const double idle_w = timeline.power_at(util::seconds(1.0)).value();
  const double busy_w = timeline.power_at(util::seconds(3.5)).value();
  EXPECT_GT(busy_w, idle_w);
  // Boundary at t=2 belongs to the second segment.
  EXPECT_DOUBLE_EQ(timeline.power_at(util::seconds(2.0)).value(), busy_w);
}

TEST(PowerTimeline, PastEndReadsIdle) {
  const PowerTimeline timeline(
      simple_cluster(),
      {{util::seconds(1.0), ComponentUtilization{1.0, 1.0, 1.0, 1.0}, 2}});
  EXPECT_DOUBLE_EQ(timeline.power_at(util::seconds(10.0)).value(),
                   simple_cluster().idle_wall_power().value());
}

TEST(PowerTimeline, ExactEnergyIsSegmentSum) {
  const ComponentUtilization busy{1.0, 0.5, 0.0, 0.0};
  const ClusterPowerModel model = simple_cluster();
  const PowerTimeline timeline(
      model, {{util::seconds(4.0), busy, 1},
              {util::seconds(6.0), ComponentUtilization::idle(), 2}});
  const double expected = model.wall_power(busy, 1).value() * 4.0 +
                          model.idle_wall_power().value() * 6.0;
  EXPECT_NEAR(timeline.exact_energy().value(), expected, 1e-9);
  EXPECT_NEAR(timeline.exact_average_power().value(), expected / 10.0, 1e-9);
}

TEST(PowerTimeline, StepsMatchPowerAt) {
  const PowerTimeline timeline(
      simple_cluster(),
      {{util::seconds(2.0), ComponentUtilization{0.7, 0.3, 0.1, 0.0}, 2}});
  const PowerSteps steps = timeline.steps();
  for (double t : {0.0, 0.5, 1.9, 2.5}) {
    EXPECT_DOUBLE_EQ(steps.at(util::seconds(t)).value(),
                     timeline.power_at(util::seconds(t)).value());
  }
}

TEST(PowerSteps, ConstantReadsItsLevelEverywhere) {
  const PowerSteps steps = PowerSteps::constant(util::watts(42.5));
  StepCursor cursor(steps);
  for (double t : {0.0, 1.0, 1e9}) {
    EXPECT_EQ(steps.at(util::seconds(t)).value(), 42.5);
    EXPECT_EQ(cursor.at(util::seconds(t)).value(), 42.5);
  }
}

TEST(StepCursor, MatchesBinarySearchOnNonDecreasingQueries) {
  // Ends include a repeated value (a zero-width step, as float rounding of
  // a prefix sum can produce); queries land before, on and between ends.
  const std::vector<double> ends = {1.0, 2.5, 2.5, 4.0};
  const std::vector<util::Watts> watts = {util::watts(10.0), util::watts(20.0),
                                          util::watts(30.0),
                                          util::watts(40.0)};
  const PowerSteps steps{ends, watts, util::watts(5.0)};
  StepCursor cursor(steps);
  for (double t : {0.0, 0.5, 1.0, 1.0, 2.4, 2.5, 3.0, 4.0, 4.0, 7.0}) {
    EXPECT_EQ(cursor.at(util::seconds(t)).value(),
              steps.at(util::seconds(t)).value())
        << "t = " << t;
  }
  EXPECT_EQ(steps.at(util::seconds(2.5)).value(), 40.0);
  EXPECT_EQ(steps.at(util::seconds(4.0)).value(), 5.0);
  // A view needs exactly one level per segment.
  EXPECT_THROW(StepCursor(PowerSteps{ends, {}, util::watts(5.0)}),
               util::PreconditionError);
}

TEST(PowerTimeline, StepsCarryOneLevelPerSegmentAndIdleAfter) {
  const ComponentUtilization busy{1.0, 1.0, 1.0, 1.0};
  const ClusterPowerModel model = simple_cluster();
  const PowerTimeline timeline(model, {{util::seconds(2.0), busy, 1},
                                       {util::seconds(3.0), busy, 2}});
  const PowerSteps steps = timeline.steps();
  ASSERT_EQ(steps.ends.size(), 2u);
  ASSERT_EQ(steps.watts.size(), 2u);
  EXPECT_EQ(steps.ends[1], 5.0);
  EXPECT_EQ(steps.watts[0].value(), model.wall_power(busy, 1).value());
  EXPECT_EQ(steps.watts[1].value(), model.wall_power(busy, 2).value());
  EXPECT_EQ(steps.after_end.value(), model.idle_wall_power().value());
}

TEST(PowerTimeline, Validation) {
  EXPECT_THROW(PowerTimeline(simple_cluster(), {}), util::PreconditionError);
  EXPECT_THROW(
      PowerTimeline(simple_cluster(),
                    {{util::seconds(0.0), ComponentUtilization::idle(), 1}}),
      util::PreconditionError);
  EXPECT_THROW(
      PowerTimeline(simple_cluster(),
                    {{util::seconds(1.0), ComponentUtilization::idle(), 5}}),
      util::PreconditionError);
  EXPECT_THROW(
      [&] {
        const PowerTimeline t(
            simple_cluster(),
            {{util::seconds(1.0), ComponentUtilization::idle(), 1}});
        (void)t.power_at(util::seconds(-1.0));
      }(),
      util::PreconditionError);
}

}  // namespace
}  // namespace tgi::power
