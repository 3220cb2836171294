// google-benchmark microbenchmarks of the substrates: meter sampling over
// simulated Fire timelines, the simulated filesystem's write path, the page
// cache, the cluster simulator's pricing loop, and mpisim collectives.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "kernels/hpl_model.h"
#include "kernels/iozone_model.h"
#include "kernels/stream_model.h"
#include "mpisim/runtime.h"
#include "power/meter.h"
#include "sim/catalog.h"
#include "sim/simulator.h"

namespace {

using namespace tgi;

/// The suite on Fire over a process grid: the multi-segment simulated
/// timelines the production meter samples in every sweep.
std::vector<sim::SimulatedRun> fire_suite_runs() {
  const sim::ClusterSpec fire = sim::fire_cluster();
  const sim::ExecutionSimulator simulator(fire);
  std::vector<sim::SimulatedRun> runs;
  for (const std::size_t nodes : {1U, 2U, 4U, 8U}) {
    kernels::HplModelParams hpl;
    hpl.processes = 16 * nodes;
    runs.push_back(simulator.run(kernels::make_hpl_workload(fire, hpl)));
    kernels::StreamModelParams stream;
    stream.processes = 16 * nodes;
    runs.push_back(simulator.run(kernels::make_stream_workload(fire, stream)));
    kernels::IozoneModelParams iozone;
    iozone.nodes = nodes;
    runs.push_back(simulator.run(kernels::make_iozone_workload(fire, iozone)));
  }
  return runs;
}

void BM_WattsUpMeasure(benchmark::State& state) {
  const std::vector<sim::SimulatedRun> runs = fire_suite_runs();
  power::WattsUpMeter meter;
  std::int64_t samples = 0;
  for (const auto& run : runs) {
    samples += static_cast<std::int64_t>(std::ceil(
                   run.elapsed.value() /
                   meter.config().sample_interval.value())) +
               1;
  }
  for (auto _ : state) {
    for (const auto& run : runs) {
      benchmark::DoNotOptimize(meter.measure(run.timeline.steps(),
                                             run.elapsed));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          samples);
  state.SetLabel(std::to_string(runs.size()) + " Fire suite timelines, " +
                 std::to_string(samples) + " samples");
}
BENCHMARK(BM_WattsUpMeasure);

void BM_FsSequentialWrite(benchmark::State& state) {
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  std::vector<std::uint8_t> record(64 * 1024, 0xAB);
  for (auto _ : state) {
    fs::SimFilesystem filesystem;
    const auto fd = filesystem.open("bench");
    for (std::uint64_t off = 0; off < bytes; off += record.size()) {
      filesystem.write(fd, off, record);
    }
    filesystem.fsync(fd);
    benchmark::DoNotOptimize(filesystem.now());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FsSequentialWrite)
    ->Arg(1 << 20)
    ->Arg(16 << 20)
    ->Unit(benchmark::kMillisecond);

void BM_PageCacheAccess(benchmark::State& state) {
  fs::PageCache cache(1024, util::bytes(4096.0));
  std::uint64_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access({1, page % 2048}, true));
    ++page;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PageCacheAccess);

void BM_SimulateHplWorkload(benchmark::State& state) {
  const sim::ClusterSpec fire = sim::fire_cluster();
  const sim::ExecutionSimulator simulator(fire);
  kernels::HplModelParams params;
  params.processes = static_cast<std::size_t>(state.range(0));
  const sim::Workload wl = kernels::make_hpl_workload(fire, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.run(wl));
  }
}
BENCHMARK(BM_SimulateHplWorkload)->Arg(16)->Arg(128);

void BM_MpisimAllreduce(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpisim::run(procs, [](mpisim::Rank& rank) {
      std::vector<double> v(1024, 1.0);
      rank.allreduce_sum(std::span<double>(v));
    });
  }
  state.SetLabel("1024 doubles");
}
BENCHMARK(BM_MpisimAllreduce)->Arg(2)->Arg(4)->Arg(8)->Unit(
    benchmark::kMicrosecond);

void BM_MpisimPingPong(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    mpisim::run(2, [bytes](mpisim::Rank& rank) {
      std::vector<std::uint8_t> buf(bytes, 1);
      if (rank.rank() == 0) {
        rank.send_bytes(1, 0, buf);
        benchmark::DoNotOptimize(rank.recv_bytes(1, 1));
      } else {
        benchmark::DoNotOptimize(rank.recv_bytes(0, 0));
        rank.send_bytes(0, 1, buf);
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * bytes));
}
BENCHMARK(BM_MpisimPingPong)->Arg(64)->Arg(65536)->Unit(
    benchmark::kMicrosecond);

}  // namespace
