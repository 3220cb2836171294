// Meters: the exact ModelMeter and the Watts Up error model.
#include "power/meter.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/step_signal.h"
#include "util/error.h"

namespace tgi::power {
namespace {

PowerSteps constant_source(double watts) {
  return PowerSteps::constant(util::watts(watts));
}

/// Linear ramp from w0 to w1 over `duration`, as seen by a meter sampling
/// every `dt` seconds.
test_support::StepSignal ramp_source(double w0, double w1,
                                     double duration, double dt) {
  return test_support::sampled_steps(
      [=](double t) {
        const double frac = std::min(t / duration, 1.0);
        return w0 + (w1 - w0) * frac;
      },
      dt, duration);
}

TEST(ModelMeter, ExactOnConstantSource) {
  ModelMeter meter(util::seconds(0.1));
  const MeterReading r = meter.measure(constant_source(500.0),
                                       util::seconds(10.0));
  EXPECT_NEAR(r.average_power.value(), 500.0, 1e-9);
  EXPECT_NEAR(r.energy.value(), 5000.0, 1e-6);
  EXPECT_DOUBLE_EQ(r.duration.value(), 10.0);
}

TEST(ModelMeter, RampIntegratesToMidpoint) {
  ModelMeter meter(util::seconds(0.01));
  const MeterReading r =
      meter.measure(ramp_source(0.0, 100.0, 10.0, 0.01).view(),
                    util::seconds(10.0));
  EXPECT_NEAR(r.average_power.value(), 50.0, 0.01);
  EXPECT_NEAR(r.energy.value(), 500.0, 0.1);
}

TEST(ModelMeter, FinalSampleLandsExactlyAtDuration) {
  ModelMeter meter(util::seconds(0.3));  // does not divide 1.0 evenly
  const MeterReading r = meter.measure(constant_source(10.0),
                                       util::seconds(1.0));
  EXPECT_DOUBLE_EQ(r.trace.samples().back().t.value(), 1.0);
}

TEST(WattsUpMeter, WithinAccuracyClass) {
  WattsUpConfig cfg;
  cfg.accuracy_pct = 1.5;
  cfg.noise_pct = 0.2;
  WattsUpMeter meter(cfg);
  const MeterReading r = meter.measure(constant_source(1000.0),
                                       util::seconds(60.0));
  // Gain ±1.5% plus small noise: stay within 2%.
  EXPECT_NEAR(r.average_power.value(), 1000.0, 20.0);
  EXPECT_NEAR(r.energy.value(), 60000.0, 1200.0);
}

TEST(WattsUpMeter, OneHertzSampling) {
  WattsUpMeter meter;
  const MeterReading r = meter.measure(constant_source(100.0),
                                       util::seconds(30.0));
  EXPECT_EQ(r.trace.size(), 31u);  // samples at t=0..30 inclusive
}

TEST(WattsUpMeter, QuantizesToResolution) {
  WattsUpConfig cfg;
  cfg.accuracy_pct = 0.0;
  cfg.noise_pct = 0.0;
  cfg.resolution = util::watts(0.1);
  WattsUpMeter meter(cfg);
  const MeterReading r = meter.measure(constant_source(123.456),
                                       util::seconds(5.0));
  for (const auto& s : r.trace.samples()) {
    EXPECT_NEAR(s.watts.value(), 123.5, 1e-9);
  }
}

TEST(WattsUpMeter, DeterministicBySeed) {
  WattsUpConfig cfg;
  cfg.seed = 77;
  WattsUpMeter a(cfg);
  WattsUpMeter b(cfg);
  const MeterReading ra = a.measure(constant_source(800.0),
                                    util::seconds(20.0));
  const MeterReading rb = b.measure(constant_source(800.0),
                                    util::seconds(20.0));
  EXPECT_DOUBLE_EQ(ra.average_power.value(), rb.average_power.value());
  EXPECT_DOUBLE_EQ(ra.energy.value(), rb.energy.value());
}

TEST(WattsUpMeter, RepeatedMeasurementsDrawFreshGain) {
  WattsUpMeter meter;
  const MeterReading r1 = meter.measure(constant_source(1000.0),
                                        util::seconds(30.0));
  const MeterReading r2 = meter.measure(constant_source(1000.0),
                                        util::seconds(30.0));
  EXPECT_NE(r1.average_power.value(), r2.average_power.value());
}

TEST(WattsUpMeter, ReadingInternallyConsistent) {
  WattsUpMeter meter;
  const MeterReading r = meter.measure(constant_source(650.0),
                                       util::seconds(45.0));
  EXPECT_NEAR(r.energy.value(),
              r.average_power.value() * r.duration.value(), 1e-6);
}

TEST(WattsUpMeter, DropoutLeavesGapsButBridgesEnergy) {
  WattsUpConfig cfg;
  cfg.accuracy_pct = 0.0;
  cfg.noise_pct = 0.0;
  cfg.dropout_rate = 0.2;
  WattsUpMeter meter(cfg);
  const MeterReading r = meter.measure(constant_source(400.0),
                                       util::seconds(120.0));
  // ~20% of the 121 samples are lost...
  EXPECT_LT(r.trace.size(), 115u);
  EXPECT_GT(r.trace.size(), 75u);
  // ...but trapezoidal bridging keeps the constant-source energy exact.
  EXPECT_NEAR(r.energy.value(), 400.0 * 120.0, 1.0);
  EXPECT_DOUBLE_EQ(r.duration.value(), 120.0);
}

TEST(WattsUpMeter, DropoutBiasBoundedOnVaryingSource) {
  WattsUpConfig cfg;
  cfg.accuracy_pct = 0.0;
  cfg.noise_pct = 0.0;
  cfg.dropout_rate = 0.15;
  WattsUpMeter meter(cfg);
  const MeterReading r =
      meter.measure(ramp_source(500.0, 1500.0, 300.0, 1.0).view(),
                    util::seconds(300.0));
  // Linear ramp: bridging a gap is exact in expectation; allow 2%.
  EXPECT_NEAR(r.average_power.value(), 1000.0, 20.0);
}

TEST(WattsUpMeter, RejectsAbsurdDropout) {
  WattsUpConfig cfg;
  cfg.dropout_rate = 0.6;
  EXPECT_THROW(WattsUpMeter{cfg}, util::PreconditionError);
}

TEST(Meters, RejectNonPositiveDuration) {
  ModelMeter exact;
  WattsUpMeter plug;
  EXPECT_THROW(exact.measure(constant_source(1.0), util::seconds(0.0)),
               util::PreconditionError);
  EXPECT_THROW(plug.measure(constant_source(1.0), util::seconds(-1.0)),
               util::PreconditionError);
}

TEST(Meters, Names) {
  EXPECT_NE(ModelMeter().name().find("ModelMeter"), std::string::npos);
  EXPECT_NE(WattsUpMeter().name().find("WattsUp"), std::string::npos);
}

}  // namespace
}  // namespace tgi::power
