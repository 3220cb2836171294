// Pinned meter output: CRC-32 digests of the exact sample bytes and the
// energy bit patterns of a few fixed readings. The values were recorded
// from the per-sample meter loop the segment-walking meters replaced (the
// same in the double and float TGI_DTYPE builds). They anchor the
// production meters to historical bytes, so the reference copy in
// test_meter_differential.cpp cannot drift together with the code it
// checks.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "harness/suite.h"
#include "kernels/hpl_model.h"
#include "power/meter.h"
#include "sim/catalog.h"
#include "sim/simulator.h"
#include "util/atomic_file.h"

namespace tgi::power {
namespace {

void append_bits(std::string& out, double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<char>((bits >> (8 * b)) & 0xffU));
  }
}

/// CRC-32 over every sample's (t, watts) as little-endian IEEE doubles.
std::uint32_t sample_crc(const PowerTrace& trace) {
  std::string bytes;
  for (const PowerSample& s : trace.samples()) {
    append_bits(bytes, s.t.value());
    append_bits(bytes, s.watts.value());
  }
  return util::crc32(bytes);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// HPL on Fire at 128 processes, 16 segments: a 16-step decaying timeline.
sim::SimulatedRun fire_hpl_run() {
  const sim::ClusterSpec fire = sim::fire_cluster();
  kernels::HplModelParams params;
  params.processes = 128;
  params.segments = 16;
  return sim::ExecutionSimulator(fire).run(
      kernels::make_hpl_workload(fire, params));
}

TEST(MeterDigests, WattsUpWithoutDropout) {
  const sim::SimulatedRun run = fire_hpl_run();
  WattsUpMeter meter;
  const MeterReading r = meter.measure(run.timeline.steps(), run.elapsed);
  EXPECT_EQ(r.trace.size(), 575u);
  EXPECT_EQ(sample_crc(r.trace), 0x6b3718f5u);
  EXPECT_EQ(bits(r.energy.value()), 0x4137b19593a58b5eu);
}

TEST(MeterDigests, WattsUpWithDropout) {
  const sim::SimulatedRun run = fire_hpl_run();
  WattsUpConfig cfg;
  cfg.dropout_rate = 0.1;
  cfg.seed = 2012;
  WattsUpMeter meter(cfg);
  const MeterReading r = meter.measure(run.timeline.steps(), run.elapsed);
  EXPECT_EQ(r.trace.size(), 519u);
  EXPECT_EQ(sample_crc(r.trace), 0x946e6da2u);
  EXPECT_EQ(bits(r.energy.value()), 0x4137b38f57d44812u);
}

TEST(MeterDigests, ModelMeterAtHalfSecond) {
  const sim::SimulatedRun run = fire_hpl_run();
  ModelMeter meter(util::seconds(0.5));
  const MeterReading r = meter.measure(run.timeline.steps(), run.elapsed);
  EXPECT_EQ(r.trace.size(), 1148u);
  EXPECT_EQ(sample_crc(r.trace), 0x66203bdfu);
  EXPECT_EQ(bits(r.energy.value()), 0x4137f5364e1a3961u);
}

TEST(MeterDigests, SuiteRunnerHplOnFire) {
  WattsUpMeter meter;
  harness::SuiteRunner runner(sim::fire_cluster(), meter);
  const core::BenchmarkMeasurement m = runner.run_hpl(64);
  EXPECT_EQ(bits(m.execution_time.value()), 0x40913b3bfb31f7c9u);
  EXPECT_EQ(bits(m.energy.value()), 0x4140e80a471b8272u);
  EXPECT_EQ(bits(m.average_power.value()), 0x409f658088831aeeu);
}

}  // namespace
}  // namespace tgi::power
