// perfbench_trace — the benchmark's traced run. It splits one request's
// time into layers from outside the program: it calls each module's public
// functions itself, records a span around every call, keeps the spans in
// memory and writes them out once at the end.
//
//   perfbench_trace mode=sweep cluster=PATH|fire sweep=P,Q,... seed=N
//                   published=DIR scratch=DIR spans=FILE
//   perfbench_trace mode=campaign campaign=FILE cache=DIR outdir=DIR
//                   workers=W threads=T worker_exe=PATH redrive=0|1
//                   scratch=DIR spans=FILE
//
// Only boundaries that survive the planned meter and persistence rewrites
// are called: kernels::make_*_workload, sim::ExecutionSimulator::run,
// harness::SuiteRunner::run_benchmark, core::TgiCalculator::compute (and
// compute_partial for degraded points), harness::ResultCache::lookup,
// serve::CampaignEngine::run and util::atomic_write_file.
// PowerMeter::measure, PowerTimeline::as_source and ParallelSweep::run* are
// deliberately not called. The meter's share is derived instead: for each
// benchmark the workload is built and simulated once on its own, then
// run_benchmark (build + simulate + meter) runs on the same inputs, and
//
//   power.meter = run_benchmark - kernels.build - sim.run
//
// Meter samples are counted from the simulated elapsed time and the
// meter's sample interval (ceil(elapsed / interval) + 1 per reading).
//
// mode=sweep re-drives one tgi_sweep request serially: the reference run
// on SystemG, then every suite benchmark at every sweep point, then the
// four TGI weight schemes per point, then a republish of every file the
// untraced request wrote into `published`.
//
// mode=campaign runs the campaign through serve::CampaignEngine::run
// (CPU of reaped worker processes is the RUSAGE_CHILDREN delta around it),
// looks every entry's shard and reference shard up once, computes TGI from
// the decoded records, republishes the output files and the cache shards
// the run wrote (a shard counts as written when it is new or its inode or
// mtime changed), and with redrive=1 re-drives the cold compute: every
// unique reference run and every sweep point, through the plain suite
// runner (a faulted entry's retries are not re-driven).
//
// The spans file is one JSON object: points, counts, span_ns and spans as
// [layer, dur_ns]; the "request" span covers the whole traced request.
// span_ns is the cost of one span (two clock reads and the record), timed
// over a burst of empty spans after the request; spans x span_ns is the
// time tracing added to the request.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/tgi.h"
#include "harness/cache.h"
#include "harness/suite.h"
#include "kernels/hpl_model.h"
#include "kernels/iozone_model.h"
#include "kernels/stream_model.h"
#include "power/meter.h"
#include "serve/campaign.h"
#include "serve/spec.h"
#include "sim/catalog.h"
#include "sim/simulator.h"
#include "sim/spec_io.h"
#include "util/atomic_file.h"
#include "util/config.h"
#include "util/error.h"

namespace {

using namespace tgi;
namespace fs = std::filesystem;

const std::vector<core::WeightScheme> kSchemes{
    core::WeightScheme::kArithmeticMean, core::WeightScheme::kTime,
    core::WeightScheme::kEnergy, core::WeightScheme::kPower};

/// In-memory span and counter store; written once by write().
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  static Clock::time_point begin() { return Clock::now(); }
  void end(const char* layer, Clock::time_point start) {
    spans_.push_back(
        {layer, std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start)
                    .count()});
  }
  void count(const std::string& name, double value) { counts_[name] += value; }

  void write(const std::string& path, std::size_t points) const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"points\": " << points << ", \"span_ns\": " << span_cost_ns()
        << ", \"counts\": {";
    bool first = true;
    for (const auto& [name, value] : counts_) {
      out << (first ? "" : ", ") << "\"" << name << "\": " << value;
      first = false;
    }
    out << "}, \"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "[\"" << spans_[i].layer << "\", "
          << spans_[i].dur_ns << "]";
    }
    out << "\n]}\n";
    util::atomic_write_file(path, out.str());
  }

 private:
  struct Span {
    const char* layer;
    long long dur_ns;
  };

  /// Mean cost of one empty span, recorded into a scratch tracer.
  static double span_cost_ns() {
    constexpr int kSpans = 20000;
    Tracer scratch;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSpans; ++i) scratch.end("calibration", begin());
    const std::chrono::duration<double, std::nano> total =
        Clock::now() - start;
    return total.count() / kSpans;
  }

  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

/// The workload SuiteRunner::run_benchmark(name, processes) builds.
sim::Workload build_workload(const sim::ClusterSpec& cluster,
                             const harness::SuiteConfig& config,
                             const std::string& name, std::size_t processes) {
  if (name == "HPL") {
    kernels::HplModelParams params = config.hpl;
    params.processes = processes;
    return kernels::make_hpl_workload(cluster, params);
  }
  if (name == "STREAM") {
    kernels::StreamModelParams params = config.stream;
    params.processes = processes;
    return kernels::make_stream_workload(cluster, params);
  }
  TGI_REQUIRE(name == "IOzone", "no traced workload for benchmark " << name);
  kernels::IozoneModelParams params = config.iozone;
  params.nodes = cluster.nodes_for(processes);
  return kernels::make_iozone_workload(cluster, params);
}

/// One meter configuration plus the runner and simulator it feeds.
struct Instrument {
  Instrument(const sim::ClusterSpec& cluster, harness::SuiteConfig suite,
             bool exact, std::uint64_t seed)
      : config(suite), simulator(cluster, suite.tuning) {
    if (exact) {
      sample_interval = 0.5;
      meter = std::make_unique<power::ModelMeter>(util::seconds(0.5));
    } else {
      power::WattsUpConfig wcfg;
      wcfg.seed = seed;
      sample_interval = wcfg.sample_interval.value();
      meter = std::make_unique<power::WattsUpMeter>(wcfg);
    }
    runner = std::make_unique<harness::SuiteRunner>(cluster, *meter, suite);
  }

  harness::SuiteConfig config;
  sim::ExecutionSimulator simulator;
  double sample_interval = 1.0;
  std::unique_ptr<power::PowerMeter> meter;
  std::unique_ptr<harness::SuiteRunner> runner;
};

/// Builds, simulates, then runs one benchmark, each call in its own span.
core::BenchmarkMeasurement trace_benchmark(Tracer& tracer, Instrument& inst,
                                           const std::string& name,
                                           std::size_t processes) {
  auto start = Tracer::begin();
  const sim::Workload workload = build_workload(
      inst.simulator.cluster(), inst.config, name, processes);
  tracer.end("kernels.build", start);
  start = Tracer::begin();
  const sim::SimulatedRun run = inst.simulator.run(workload);
  tracer.end("sim.run", start);
  start = Tracer::begin();
  core::BenchmarkMeasurement measurement =
      inst.runner->run_benchmark(name, processes);
  tracer.end("harness.run_benchmark", start);
  tracer.count("sim.phases", static_cast<double>(run.phases.size()));
  tracer.count("power.samples",
               std::ceil(run.elapsed.value() / inst.sample_interval) + 1.0);
  return measurement;
}

/// The reference run harness::reference_measurements performs, benchmark
/// by benchmark: full scale, metering only the active nodes, IOzone on
/// the configured node slice.
std::vector<core::BenchmarkMeasurement> trace_reference(
    Tracer& tracer, const sim::ClusterSpec& reference,
    bool exact, std::uint64_t seed) {
  harness::SuiteConfig suite;
  suite.tuning.meter_active_nodes_only = true;
  Instrument inst(reference, suite, exact, seed);
  const std::size_t io_nodes =
      std::min(suite.reference_iozone_nodes, reference.nodes);
  std::vector<core::BenchmarkMeasurement> out;
  out.push_back(trace_benchmark(tracer, inst, "HPL", reference.total_cores()));
  out.push_back(
      trace_benchmark(tracer, inst, "STREAM", reference.total_cores()));
  out.push_back(trace_benchmark(tracer, inst, "IOzone",
                                io_nodes * reference.node.total_cores()));
  return out;
}

void trace_tgi(Tracer& tracer, const core::TgiCalculator& calc,
               const std::vector<core::BenchmarkMeasurement>& system,
               bool partial) {
  if (system.empty()) return;
  for (const core::WeightScheme scheme : kSchemes) {
    const auto start = Tracer::begin();
    if (partial) {
      (void)calc.compute_partial(system, scheme);
    } else {
      (void)calc.compute(system, scheme);
    }
    tracer.end("core.tgi", start);
    tracer.count("core.tgi_calls", 1.0);
  }
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  TGI_REQUIRE(in.good(), "cannot read " << path.string());
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Republishes `files` (relative to `from`) under `to` through
/// util::atomic_write_file, one span each; returns the bytes written.
double republish(Tracer& tracer, const char* layer,
                 const fs::path& from, const std::vector<fs::path>& files,
                 const fs::path& to) {
  double bytes = 0.0;
  for (const fs::path& rel : files) {
    const std::string content = read_file(from / rel);
    fs::create_directories((to / rel).parent_path());
    const auto start = Tracer::begin();
    util::atomic_write_file((to / rel).string(), content);
    tracer.end(layer, start);
    bytes += static_cast<double>(content.size());
  }
  return bytes;
}

std::vector<fs::path> files_under(const fs::path& root) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) {
      files.push_back(fs::relative(entry.path(), root));
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int run_sweep(const util::Config& cfg) {
  util::require_known_keys(cfg,
                           {"mode", "cluster", "sweep", "seed", "meter",
                            "published", "scratch", "spans"},
                           "perfbench_trace mode=sweep");
  const std::string cluster_arg = cfg.get_string("cluster", "fire");
  const sim::ClusterSpec cluster = cluster_arg == "fire"
                                       ? sim::fire_cluster()
                                       : sim::load_cluster_file(cluster_arg);
  std::vector<std::size_t> sweep;
  for (const long long p : cfg.get_int_list("sweep", {})) {
    TGI_REQUIRE(p >= 1, "sweep values must be >= 1");
    sweep.push_back(static_cast<std::size_t>(p));
  }
  TGI_REQUIRE(!sweep.empty(), "mode=sweep needs sweep=P,Q,...");
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 0));
  const bool exact = cfg.get_string("meter", "wattsup") == "model";
  const fs::path published = cfg.get_string("published", "");
  const fs::path scratch = cfg.get_string("scratch", "");
  TGI_REQUIRE(!published.empty() && !scratch.empty(),
              "mode=sweep needs published=DIR and scratch=DIR");
  const std::vector<fs::path> files = files_under(published);

  Tracer tracer;
  const auto request = Tracer::begin();
  // tgi_sweep salts the reference meter's seed by 1 (make_meter(1)).
  const core::TgiCalculator calc(
      trace_reference(tracer, sim::system_g(), exact, seed + 1));
  Instrument inst(cluster, {}, exact, seed);
  for (const std::size_t p : sweep) {
    std::vector<core::BenchmarkMeasurement> point;
    for (const std::string& name : harness::suite_benchmarks(inst.config)) {
      point.push_back(trace_benchmark(tracer, inst, name, p));
    }
    trace_tgi(tracer, calc, point, false);
  }
  const double bytes = republish(tracer, "harness.publish", published, files,
                                 scratch / "publish");
  tracer.end("request", request);
  tracer.count("harness.published_files", static_cast<double>(files.size()));
  tracer.count("harness.published_bytes", bytes);
  tracer.write(cfg.get_string("spans", "spans.json"), sweep.size());
  return 0;
}

/// (inode, size, mtime) of every shard file directly under the cache dir.
std::map<std::string, std::vector<long long>> shard_snapshot(
    const fs::path& cache) {
  std::map<std::string, std::vector<long long>> snap;
  if (!fs::exists(cache)) return snap;
  for (const auto& entry : fs::directory_iterator(cache)) {
    if (!entry.is_regular_file()) continue;
    struct stat st {};
    if (::stat(entry.path().c_str(), &st) != 0) continue;
    snap[entry.path().filename().string()] = {
        static_cast<long long>(st.st_ino), static_cast<long long>(st.st_size),
        static_cast<long long>(st.st_mtim.tv_sec) * 1000000000LL +
            st.st_mtim.tv_nsec};
  }
  return snap;
}

long long children_cpu_us() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  const auto us = [](const timeval& tv) {
    return static_cast<long long>(tv.tv_sec) * 1000000LL + tv.tv_usec;
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

int run_campaign(const util::Config& cfg) {
  util::require_known_keys(
      cfg,
      {"mode", "campaign", "cache", "outdir", "workers", "threads",
       "worker_exe", "redrive", "scratch", "spans"},
      "perfbench_trace mode=campaign");
  TGI_REQUIRE(cfg.has("campaign") && cfg.has("cache") && cfg.has("outdir") &&
                  cfg.has("scratch"),
              "mode=campaign needs campaign=, cache=, outdir=, scratch=");
  const std::vector<serve::CampaignSpec> entries =
      serve::load_campaign_file(*cfg.get("campaign"));
  const fs::path cache_dir = *cfg.get("cache");
  const fs::path outdir = *cfg.get("outdir");
  const fs::path scratch = *cfg.get("scratch");
  serve::CampaignConfig config;
  config.cache_dir = cache_dir.string();
  config.outdir = outdir.string();
  const long long workers = cfg.get_int("workers", 0);
  const long long threads = cfg.get_int("threads", 1);
  TGI_REQUIRE(workers >= 0 && threads >= 0, "workers/threads must be >= 0");
  config.workers = static_cast<std::size_t>(workers);
  config.threads = static_cast<std::size_t>(threads);
  config.worker_exe = cfg.get_string("worker_exe", "");
  const bool redrive = cfg.get_bool("redrive", false);

  Tracer tracer;
  const auto request = Tracer::begin();
  const auto before = shard_snapshot(cache_dir);
  const long long cpu_before = children_cpu_us();
  auto start = Tracer::begin();
  std::ostringstream report;
  (void)serve::CampaignEngine(config).run(entries, report);
  tracer.end("serve.campaign_run", start);
  tracer.count("serve.worker_cpu_us",
               static_cast<double>(children_cpu_us() - cpu_before));

  std::vector<fs::path> written;
  double written_bytes = 0.0;
  for (const auto& [name, meta] : shard_snapshot(cache_dir)) {
    const auto it = before.find(name);
    if (it == before.end() || it->second[0] != meta[0] ||
        it->second[2] != meta[2]) {
      written.emplace_back(name);
      written_bytes += static_cast<double>(meta[1]);
    }
  }
  tracer.count("harness.cache_bytes_written", written_bytes);

  const harness::ResultCache cache(cache_dir.string());
  std::size_t points = 0;
  std::set<std::uint64_t> references;
  for (const serve::CampaignSpec& entry : entries) {
    points += entry.sweep.size();
    const std::uint64_t hash = serve::spec_hash(entry);
    const std::uint64_t ref_hash = serve::reference_spec_hash(entry);
    start = Tracer::begin();
    const harness::CacheLookup shard =
        cache.lookup(hash, serve::spec_mode(entry), entry.sweep);
    tracer.end("harness.cache_lookup", start);
    start = Tracer::begin();
    const harness::CacheLookup ref_shard =
        cache.lookup(ref_hash, "plain", {entry.reference.total_cores()});
    tracer.end("harness.cache_lookup", start);
    for (const std::uint64_t h : {hash, ref_hash}) {
      tracer.count("harness.cache_bytes_read",
                   static_cast<double>(fs::file_size(cache.shard_path(h))));
    }
    TGI_CHECK(ref_shard.hit(0), "reference of [" << entry.name
                                                 << "] missing from cache");
    const core::TgiCalculator calc(
        ref_shard.completed.at(0).point.measurements);
    for (const auto& [index, record] : shard.completed) {
      trace_tgi(tracer, calc, record.point.measurements, record.robust);
    }

    if (!redrive) continue;
    if (references.insert(ref_hash).second) {
      (void)trace_reference(tracer, entry.reference, entry.exact_meter,
                            entry.seed + 1);
    }
    Instrument inst(entry.cluster, {}, entry.exact_meter, entry.seed);
    for (const std::size_t p : entry.sweep) {
      for (const std::string& name : harness::suite_benchmarks(inst.config)) {
        (void)trace_benchmark(tracer, inst, name, p);
      }
    }
  }

  const std::vector<fs::path> outputs = files_under(outdir);
  const double published = republish(tracer, "harness.publish", outdir,
                                     outputs, scratch / "publish");
  (void)republish(tracer, "harness.cache_store", cache_dir, written,
                  scratch / "store");
  tracer.end("request", request);
  tracer.count("harness.published_files", static_cast<double>(outputs.size()));
  tracer.count("harness.published_bytes", published);
  tracer.write(cfg.get_string("spans", "spans.json"), points);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Config cfg = util::Config::from_args(argc, argv);
    const std::string mode = cfg.get_string("mode", "");
    if (mode == "sweep") return run_sweep(cfg);
    if (mode == "campaign") return run_campaign(cfg);
    std::cerr << "perfbench_trace: mode must be 'sweep' or 'campaign'\n";
    return 2;
  } catch (const std::exception& ex) {
    std::cerr << "perfbench_trace: error: " << ex.what() << "\n";
    return 1;
  }
}
