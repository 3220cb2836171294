// Power-trace anatomy: what the plug meter actually sees during an HPL
// run — and why "average power" hides structure TGI's energy integral
// keeps.
//
// The HPL workload's trailing matrix shrinks as the factorization
// progresses, so the cluster's draw falls over the run; the meter samples
// that decay at 1 Hz exactly as the paper's Figure 1 instrument did. This
// example renders the trace as an ASCII profile and writes the raw meter
// log to CSV.
#include <iostream>

#include "harness/report.h"
#include "harness/suite.h"
#include "kernels/hpl_model.h"
#include "sim/catalog.h"
#include "util/format.h"

int main() {
  using namespace tgi;

  const sim::ClusterSpec fire = sim::fire_cluster();
  const sim::ExecutionSimulator simulator(fire);
  kernels::HplModelParams params;
  params.processes = 128;
  params.segments = 16;  // fine-grained so the power decay is visible
  const sim::Workload wl = kernels::make_hpl_workload(fire, params);
  const sim::SimulatedRun run = simulator.run(wl);

  power::WattsUpMeter meter;
  const power::MeterReading reading =
      meter.measure(run.timeline.steps(), run.elapsed);

  std::cout << "HPL on Fire, 128 cores: " << util::format(run.elapsed)
            << " behind the meter\n";
  std::cout << "  average " << util::format(reading.average_power)
            << ", peak " << util::format(reading.trace.max_power())
            << ", floor " << util::format(reading.trace.min_power())
            << ", energy " << util::format(reading.energy) << "\n\n";

  // Downsample the trace into 60 buckets and sparkline it.
  const auto& samples = reading.trace.samples();
  std::vector<double> profile;
  const std::size_t buckets = 60;
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t i = b * (samples.size() - 1) / (buckets - 1);
    profile.push_back(samples[i].watts.value());
  }
  std::cout << "power over the run (60 samples):\n  "
            << harness::sparkline(profile) << "\n\n";

  std::cout << "per-phase breakdown (trailing matrix shrinking):\n";
  for (std::size_t s = 0; s < run.phases.size(); s += 4) {
    const auto& ph = run.phases[s];
    std::cout << "  " << ph.label << ": " << util::format(ph.duration)
              << ", cpu util " << util::percent(ph.utilization.cpu, 0)
              << "\n";
  }

  harness::write_trace_csv(reading.trace, "hpl_power_trace.csv");
  std::cout << "\nraw 1 Hz meter log written to hpl_power_trace.csv ("
            << reading.trace.size() << " samples)\n";
  return 0;
}
