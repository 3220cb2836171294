// Fault-injection plane (harness/faults.h): spec parsing, the determinism
// contract of FaultPlan, the trace surgeries, and the FaultyMeter
// decorator's offset-replay property.
#include "harness/faults.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "power/meter.h"
#include "power/trace.h"
#include "support/step_signal.h"
#include "util/error.h"

namespace tgi::harness {
namespace {

/// N samples at 1 Hz; watts = f(i).
template <typename F>
power::PowerTrace make_trace(std::size_t n, F watts_of) {
  power::PowerTrace trace;
  for (std::size_t i = 0; i < n; ++i) {
    trace.add({util::seconds(static_cast<double>(i)),
               util::watts(watts_of(i))});
  }
  return trace;
}

TEST(FaultSpec, DefaultsAreDisabledAndValid) {
  const FaultSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_NO_THROW(spec.validate());
}

TEST(FaultSpec, ValidationRejectsMalformedRates) {
  FaultSpec spec;
  spec.dropout_burst_rate = 1.5;
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec.dropout_burst_rate = 0.6;
  spec.stuck_rate = 0.5;  // meter rates sum past 1
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = FaultSpec{};
  spec.window_fraction = 1.0;
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = FaultSpec{};
  spec.spike_gain_max = 1.0;
  EXPECT_THROW(spec.validate(), util::PreconditionError);
  spec = FaultSpec{};
  spec.truncation_fraction = 0.0;
  EXPECT_THROW(spec.validate(), util::PreconditionError);
}

TEST(FaultSpec, ParsesCommaSeparatedKeyValues) {
  const FaultSpec spec = parse_fault_spec(
      "dropout=0.2,stuck=0.1,spike=0.05,failure=0.08,timeout=0.04,"
      "truncation=0.02,window=0.25,gain=2.5,tail=0.4,seed=42");
  EXPECT_DOUBLE_EQ(spec.dropout_burst_rate, 0.2);
  EXPECT_DOUBLE_EQ(spec.stuck_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.spike_rate, 0.05);
  EXPECT_DOUBLE_EQ(spec.failure_rate, 0.08);
  EXPECT_DOUBLE_EQ(spec.timeout_rate, 0.04);
  EXPECT_DOUBLE_EQ(spec.truncation_rate, 0.02);
  EXPECT_DOUBLE_EQ(spec.window_fraction, 0.25);
  EXPECT_DOUBLE_EQ(spec.spike_gain_max, 2.5);
  EXPECT_DOUBLE_EQ(spec.truncation_fraction, 0.4);
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_TRUE(spec.enabled());
}

TEST(FaultSpec, ParserRejectsUnknownKeysAndBadValues) {
  EXPECT_THROW((void)parse_fault_spec("droput=0.2"), util::PreconditionError);
  EXPECT_THROW((void)parse_fault_spec("dropout=2.0"),
               util::PreconditionError);
}

TEST(FaultSpec, SummaryNamesOnlyActiveRates) {
  FaultSpec spec;
  spec.dropout_burst_rate = 0.2;
  spec.seed = 7;
  const std::string summary = fault_spec_summary(spec);
  EXPECT_NE(summary.find("dropout=0.2"), std::string::npos);
  EXPECT_NE(summary.find("seed=7"), std::string::npos);
  EXPECT_EQ(summary.find("stuck"), std::string::npos);
}

TEST(FaultPlan, DecisionsArePureFunctionsOfSeedAndIndex) {
  FaultSpec spec;
  spec.dropout_burst_rate = 0.2;
  spec.stuck_rate = 0.1;
  spec.spike_rate = 0.1;
  const FaultPlan a(spec);
  const FaultPlan b(spec);  // an independent copy must agree exactly
  for (std::uint64_t i = 0; i < 500; ++i) {
    const MeterFault fa = a.meter_fault(i);
    const MeterFault fb = b.meter_fault(i);
    EXPECT_EQ(fa.kind, fb.kind);
    EXPECT_EQ(fa.window_start, fb.window_start);
    EXPECT_EQ(fa.window_length, fb.window_length);
    EXPECT_EQ(fa.gain, fb.gain);
    // Re-asking the same plan must not advance any hidden state.
    const MeterFault fc = a.meter_fault(i);
    EXPECT_EQ(fa.kind, fc.kind);
    EXPECT_EQ(fa.window_start, fc.window_start);
  }
}

TEST(FaultPlan, MeterFaultRatesComeOutEmpirically) {
  FaultSpec spec;
  spec.dropout_burst_rate = 0.2;
  spec.stuck_rate = 0.1;
  spec.spike_rate = 0.1;
  const FaultPlan plan(spec);
  std::size_t dropout = 0;
  std::size_t stuck = 0;
  std::size_t spike = 0;
  const std::uint64_t n = 20000;
  for (std::uint64_t i = 0; i < n; ++i) {
    switch (plan.meter_fault(i).kind) {
      case MeterFaultKind::kDropoutBurst:
        ++dropout;
        break;
      case MeterFaultKind::kStuckAt:
        ++stuck;
        break;
      case MeterFaultKind::kGainSpike:
        ++spike;
        break;
      case MeterFaultKind::kNone:
        break;
    }
  }
  const auto frac = [&](std::size_t c) {
    return static_cast<double>(c) / static_cast<double>(n);
  };
  EXPECT_NEAR(frac(dropout), 0.2, 0.02);
  EXPECT_NEAR(frac(stuck), 0.1, 0.02);
  EXPECT_NEAR(frac(spike), 0.1, 0.02);
}

TEST(FaultPlan, DrawnParametersStayInBounds) {
  FaultSpec spec;
  spec.spike_rate = 1.0;
  spec.spike_gain_max = 3.0;
  const FaultPlan plan(spec);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const MeterFault f = plan.meter_fault(i);
    ASSERT_EQ(f.kind, MeterFaultKind::kGainSpike);
    EXPECT_GE(f.window_start, 0.0);
    EXPECT_LE(f.window_start + f.window_length, 1.0);
    const double magnitude = f.gain >= 1.0 ? f.gain : 1.0 / f.gain;
    EXPECT_GE(magnitude, 1.5);
    EXPECT_LE(magnitude, 3.0);
  }
}

TEST(FaultPlan, RunFaultsAreDeterministicPerAttempt) {
  FaultSpec spec;
  spec.failure_rate = 0.3;
  spec.timeout_rate = 0.2;
  spec.truncation_rate = 0.1;
  const FaultPlan plan(spec);
  std::size_t faulted = 0;
  for (std::uint64_t p = 0; p < 10; ++p) {
    for (std::uint64_t b = 0; b < 4; ++b) {
      for (std::uint64_t attempt = 0; attempt < 3; ++attempt) {
        const RunFault first = plan.run_fault(p, b, attempt);
        EXPECT_EQ(first.kind, plan.run_fault(p, b, attempt).kind);
        if (first.kind != RunFaultKind::kNone) ++faulted;
      }
    }
  }
  // 120 attempts at a 60% total rate: some fault, some do not.
  EXPECT_GT(faulted, 30u);
  EXPECT_LT(faulted, 110u);
}

TEST(FaultPlan, ZeroRatesNeverFault) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(plan.meter_fault(i).kind, MeterFaultKind::kNone);
    EXPECT_EQ(plan.run_fault(i, 0, 0).kind, RunFaultKind::kNone);
  }
}

TEST(ApplyMeterFault, DropoutRemovesInteriorWindowOnly) {
  const auto trace = make_trace(101, [](std::size_t) { return 1000.0; });
  MeterFault fault;
  fault.kind = MeterFaultKind::kDropoutBurst;
  fault.window_start = 0.3;
  fault.window_length = 0.2;  // [30 s, 50 s): samples 30..49
  const power::PowerTrace out = apply_meter_fault(trace, fault);
  EXPECT_EQ(out.size(), 81u);
  // The gap spans the whole window.
  double max_gap = 0.0;
  const auto& samples = out.samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    max_gap = std::max(max_gap,
                       samples[i].t.value() - samples[i - 1].t.value());
  }
  EXPECT_DOUBLE_EQ(max_gap, 21.0);
  EXPECT_DOUBLE_EQ(samples.front().t.value(), 0.0);
  EXPECT_DOUBLE_EQ(samples.back().t.value(), 100.0);
}

TEST(ApplyMeterFault, DropoutAtTheEdgeKeepsBoundarySamples) {
  const auto trace = make_trace(10, [](std::size_t) { return 500.0; });
  MeterFault fault;
  fault.kind = MeterFaultKind::kDropoutBurst;
  fault.window_start = 0.0;
  fault.window_length = 0.5;  // would swallow the first sample
  const power::PowerTrace out = apply_meter_fault(trace, fault);
  EXPECT_GE(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out.samples().front().t.value(), 0.0);
  EXPECT_DOUBLE_EQ(out.samples().back().t.value(), 9.0);
}

TEST(ApplyMeterFault, StuckAtFreezesTheWindowEntryValue) {
  const auto trace =
      make_trace(100, [](std::size_t i) { return 1000.0 + 2.0 * static_cast<double>(i); });
  MeterFault fault;
  fault.kind = MeterFaultKind::kStuckAt;
  fault.window_start = 0.4;
  fault.window_length = 0.2;
  const power::PowerTrace out = apply_meter_fault(trace, fault);
  ASSERT_EQ(out.size(), trace.size());
  const double lo = 0.4 * 99.0;
  const double hi = lo + 0.2 * 99.0;
  double entry_value = 0.0;
  bool entry_seen = false;
  for (const auto& s : out.samples()) {
    const double t = s.t.value();
    if (t >= lo && t < hi) {
      if (!entry_seen) {
        entry_value = s.watts.value();
        entry_seen = true;
      }
      EXPECT_DOUBLE_EQ(s.watts.value(), entry_value);
    } else {
      EXPECT_DOUBLE_EQ(s.watts.value(), 1000.0 + 2.0 * t);
    }
  }
  EXPECT_TRUE(entry_seen);
}

TEST(ApplyMeterFault, GainSpikeScalesTheWindowExactly) {
  const auto trace = make_trace(100, [](std::size_t) { return 800.0; });
  MeterFault fault;
  fault.kind = MeterFaultKind::kGainSpike;
  fault.window_start = 0.5;
  fault.window_length = 0.1;
  fault.gain = 2.0;
  const power::PowerTrace out = apply_meter_fault(trace, fault);
  ASSERT_EQ(out.size(), trace.size());
  std::size_t spiked = 0;
  for (const auto& s : out.samples()) {
    if (s.watts.value() == 1600.0) {
      ++spiked;
    } else {
      EXPECT_DOUBLE_EQ(s.watts.value(), 800.0);
    }
  }
  EXPECT_GT(spiked, 0u);
  EXPECT_LT(spiked, trace.size() / 2);
}

TEST(ApplyMeterFault, NoneIsIdentity) {
  const auto trace = make_trace(10, [](std::size_t i) {
    return 100.0 + static_cast<double>(i);
  });
  const power::PowerTrace out = apply_meter_fault(trace, MeterFault{});
  ASSERT_EQ(out.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(out.samples()[i].watts.value(),
              trace.samples()[i].watts.value());
  }
}

TEST(TruncateTrace, DropsTheTailFraction) {
  const auto trace = make_trace(101, [](std::size_t) { return 900.0; });
  const power::PowerTrace out = truncate_trace(trace, 0.35);
  EXPECT_EQ(out.size(), 66u);  // t = 0..65 survive a cutoff at 65 s
  EXPECT_DOUBLE_EQ(out.samples().back().t.value(), 65.0);
}

TEST(TruncateTrace, PathologicalTailKeepsTwoSamples) {
  const auto trace = make_trace(10, [](std::size_t) { return 900.0; });
  const power::PowerTrace out = truncate_trace(trace, 0.99);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out.samples()[1].t.value(), 1.0);
}

TEST(TruncateTrace, RejectsBadFractions) {
  const auto trace = make_trace(10, [](std::size_t) { return 900.0; });
  EXPECT_THROW(truncate_trace(trace, 0.0), util::PreconditionError);
  EXPECT_THROW(truncate_trace(trace, 1.0), util::PreconditionError);
}

TEST(FaultyMeter, DisabledPlanIsABitIdenticalPassthrough) {
  power::WattsUpConfig cfg;
  cfg.seed = 0xabcdULL;
  power::WattsUpMeter plain(cfg);
  power::WattsUpMeter inner(cfg);
  FaultyMeter faulty(inner, FaultPlan{});
  // Linear ramp as a default (1 Hz) WattsUp meter samples it over 120 s.
  const test_support::StepSignal ramp = test_support::sampled_steps(
      [](double t) { return 300.0 + 0.5 * t; }, 1.0, 120.0);
  const power::PowerSteps source = ramp.view();
  for (int i = 0; i < 3; ++i) {
    const auto expected = plain.measure(source, util::seconds(120.0));
    const auto got = faulty.measure(source, util::seconds(120.0));
    EXPECT_EQ(got.energy.value(), expected.energy.value());
    EXPECT_EQ(got.average_power.value(), expected.average_power.value());
    EXPECT_EQ(got.duration.value(), expected.duration.value());
    EXPECT_EQ(got.trace.size(), expected.trace.size());
  }
  EXPECT_EQ(faulty.faults_applied(), 0u);
  EXPECT_EQ(faulty.name(), "Faulty(" + inner.name() + ")");
}

TEST(FaultyMeter, OffsetReplaysTheSharedDecoratorStreams) {
  // A fresh decorator at measurement_offset k must fault exactly like one
  // that already performed k measurements — FaultPlan decisions are keyed
  // on the absolute index, mirroring WattsUpConfig::run_offset.
  FaultSpec spec;
  spec.spike_rate = 1.0;  // every measurement gets its own spike window
  const FaultPlan plan(spec);
  // Quadratic ramp: the spike window's position changes the energy, so a
  // mismatched fault index cannot hide.
  const test_support::StepSignal quadratic = test_support::sampled_steps(
      [](double t) { return 200.0 + 0.05 * t * t; }, 1.0, 60.0);
  const power::PowerSteps source = quadratic.view();
  power::ModelMeter inner(util::seconds(1.0));
  FaultyMeter shared(inner, plan);
  std::vector<double> energies;
  for (int i = 0; i < 4; ++i) {
    energies.push_back(
        shared.measure(source, util::seconds(60.0)).energy.value());
  }
  // The windows really differ measurement to measurement.
  EXPECT_NE(energies[0], energies[1]);
  for (std::uint64_t offset = 0; offset < 4; ++offset) {
    power::ModelMeter fresh_inner(util::seconds(1.0));
    FaultyMeter fresh(fresh_inner, plan, offset);
    EXPECT_EQ(fresh.measure(source, util::seconds(60.0)).energy.value(),
              energies[offset])
        << "offset " << offset;
  }
}

TEST(FaultyMeter, ArmedTruncationIsOneShot) {
  power::ModelMeter inner(util::seconds(1.0));
  FaultyMeter faulty(inner, FaultPlan{});
  const power::PowerSteps source =
      power::PowerSteps::constant(util::watts(400.0));
  faulty.arm_truncation(0.35);
  const auto cut = faulty.measure(source, util::seconds(100.0));
  EXPECT_LT(cut.duration.value(), 0.66 * 100.0);
  const auto whole = faulty.measure(source, util::seconds(100.0));
  EXPECT_GT(whole.duration.value(), 0.99 * 100.0);
  EXPECT_THROW(faulty.arm_truncation(1.5), util::PreconditionError);
}

TEST(FaultyMeter, DisarmClearsAStaleArmedTruncation) {
  // An armed truncation is consumed only by a completed measurement; when
  // the inner meter throws first, the charge survives. The recovery layer
  // must be able to disarm before reusing the decorator (the stale charge
  // used to corrupt the next attempt's reading).
  power::ModelMeter inner(util::seconds(1.0));
  FaultyMeter faulty(inner, FaultPlan{});
  const power::PowerSteps source =
      power::PowerSteps::constant(util::watts(400.0));
  EXPECT_FALSE(faulty.truncation_armed());
  faulty.arm_truncation(0.35);
  EXPECT_TRUE(faulty.truncation_armed());
  faulty.disarm_truncation();
  EXPECT_FALSE(faulty.truncation_armed());
  const auto whole = faulty.measure(source, util::seconds(100.0));
  EXPECT_GT(whole.duration.value(), 0.99 * 100.0);
}

}  // namespace
}  // namespace tgi::harness
