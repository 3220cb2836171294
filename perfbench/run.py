#!/usr/bin/env python3
"""The repo benchmark: closed-loop tgi_sweep / tgi_serve workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the tools and its own two
helpers (perfbench/build.cmake) in an optimised build under .bench_build/,
generates the run's requests from --seed (workloads.py), sets up, then
sends one request at a time for --seconds seconds, checking every output.
The set-up is repeated between rounds (SetupPasses), and a host probe
(HostProbe) before each round and set-up pass gives the host's speed, at
which the time metrics are reported. --trace 0 reports the end-to-end
metrics; --trace 1 makes the separate traced run and reports the per-layer
metrics. The last stdout line is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
See perfbench/README.md for the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# The host probe (HostProbe): Python loop iterations and files published
# per probe, probes per factor, and the nominal wall and CPU seconds of the
# probe's spawn and loop and of one of its files: the speed the time
# metrics are reported at, about what they take on the reference box when
# its file system is fast. A factor counts the spawn, the loop and some of
# the files: RATE_FILES for points_per_s, which is set by the many light
# requests whose wall time is mostly file publication, and TIME_FILES for
# the tail, CPU time and set-up, which are set by compute-heavy requests,
# by the CPU time of all threads and by single-threaded runs, and carry
# about a third as much file work per unit of time.
PROBE_LOOP = 30000
PROBE_FILES = 12
PROBE_WINDOW = 5
PROBE_NOMINAL_WORK = 0.0065
PROBE_NOMINAL_FILE = 0.00006
RATE_FILES = 12
TIME_FILES = 4
PROBE_FILE_TEXT = "processes,watts\n" + "".join(
    "%d,%d.%03d\n" % (p, 100 + p, p * 37 % 1000) for p in range(1, 33))
REQUEST_TIMEOUT_S = 60
SOURCES = ("CMakeLists.txt", "src", "tools/tgi_sweep.cpp",
           "tools/tgi_serve.cpp", "clusters")
TARGETS = ("tgi_sweep", "tgi_serve_tool", "perfbench_loop", "perfbench_trace")


class BenchError(Exception):
    """The benchmark cannot produce a result; exits nonzero, prints none."""


# ----------------------------------------------------------------- build

class Build:
    def __init__(self, root):
        self.dtype = os.environ.get("TGI_DTYPE", "double")
        self.dir = os.path.join(root, ".bench_build", "cmake-" + self.dtype)
        self.root = root

    def tool(self, name):
        return os.path.join(self.dir, name)

    def run(self):
        os.makedirs(self.dir, exist_ok=True)
        log_path = os.path.join(self.dir, "perfbench-build.log")
        with open(log_path, "w") as log:
            if not os.path.exists(os.path.join(self.dir, "CMakeCache.txt")):
                cmd = ["cmake", "-S", self.root, "-B", self.dir,
                       "-DCMAKE_BUILD_TYPE=Release",
                       "-DTGI_DTYPE=" + self.dtype,
                       "-DTGI_BUILD_TESTS=OFF", "-DTGI_BUILD_BENCH=OFF",
                       "-DTGI_BUILD_EXAMPLES=OFF",
                       "-DCMAKE_PROJECT_tgi_INCLUDE=" + os.path.join(
                           os.path.dirname(os.path.abspath(__file__)),
                           "build.cmake")]
                if shutil.which("ninja"):
                    cmd += ["-G", "Ninja"]
                if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                    shutil.rmtree(self.dir, ignore_errors=True)
                    raise BenchError("cmake configure failed")
            cmd = ["cmake", "--build", self.dir, "-j", str(os.cpu_count()),
                   "--target"] + list(TARGETS)
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                raise BenchError("build failed; see " + log_path)
        self.sweep = self.tool("tools/tgi_sweep")
        self.serve = self.tool("tools/tgi_serve")
        self.loop = self.tool("perfbench_loop")
        self.trace = self.tool("perfbench_trace")

    def fingerprint(self):
        """nproc, compiler, build type, TGI_DTYPE and sanitizer; refuses
        sanitizer and unoptimised builds."""
        probe = json.loads(subprocess.check_output(
            [self.loop, "--fingerprint"], text=True))
        cache = {}
        with open(os.path.join(self.dir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and not line.startswith(("#", "//")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
        fp = {"nproc": os.cpu_count(),
              "compiler": probe["compiler"],
              "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
              "tgi_dtype": probe["dtype"],
              "sanitizer": cache.get("TGI_SANITIZE", "")}
        if fp["sanitizer"] or probe["sanitized"]:
            raise BenchError("refusing to report numbers from a sanitizer "
                             "build: %s" % json.dumps(fp))
        if fp["build_type"] != "Release" or not probe["optimized"]:
            raise BenchError("refusing to report numbers from an "
                             "unoptimised build: %s" % json.dumps(fp))
        return fp


# ---------------------------------------------------------- request client

class LoopClient:
    """perfbench_loop: spawns one request at a time and reports its wall
    time, CPU (with reaped descendants) and the peak RSS of the largest
    process it has reaped since it started (restart() starts it again)."""

    def __init__(self, exe):
        self.exe = exe
        self.start()

    def start(self):
        self.proc = subprocess.Popen([self.exe], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)

    def restart(self):
        self.close()
        self.start()

    def request(self, argv, stdout_path, stderr_path):
        self.proc.stdin.write("\t".join([stdout_path, stderr_path] + argv)
                              + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    REQUEST_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.kill()
            raise BenchError("request did not finish within %d s: %s"
                             % (REQUEST_TIMEOUT_S, " ".join(argv)))
        code, wall_ns, cpu_us, maxrss_kb = (int(x) for x in line.split())
        return code, wall_ns / 1e9, cpu_us / 1e6, maxrss_kb

    def kill(self):
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            self.close()
        else:
            self.kill()


def run_child(argv, timeout=REQUEST_TIMEOUT_S):
    """Runs a helper in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("helper timed out: " + " ".join(argv))
    return proc.returncode, out, err


# ----------------------------------------------------------------- outputs

def digest_tree(root):
    """{relative path: sha256} of every output file except provenance.json,
    the one artifact the program documents as cache-dependent."""
    digests = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name == "provenance.json":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                digests[os.path.relpath(path, root)] = \
                    hashlib.sha256(f.read()).hexdigest()
    return digests


def read_provenance(outdir):
    with open(os.path.join(outdir, "provenance.json")) as f:
        return json.load(f)["campaign"]


class Workload:
    """Paths, argv and correctness checks of one run's requests."""

    def __init__(self, name, build, work, requests):
        self.name = name
        self.build = build
        self.work = work
        self.requests = requests
        self.warm_cache = os.path.join(work, "cache")
        self.slots = 0
        self.prepare()
        self.expected = {}
        self.setup_ok = True
        self.campaign_files = []
        for i, request in enumerate(requests):
            if isinstance(request, workloads.CampaignRequest):
                path = os.path.join(work, "campaign%d.conf" % i)
                with open(path, "w") as f:
                    f.write(request.campaign_text())
                self.campaign_files.append(path)

    @property
    def campaign(self):
        return self.name != "sweep_cold"

    def argv(self, i, workers=None, threads=None, cache=None):
        request = self.requests[i]
        if not self.campaign:
            argv = [self.build.sweep, "outdir=" + self.out,
                    "sweep=" + ",".join(str(p) for p in request.sweep),
                    "seed=%d" % request.seed,
                    "threads=%d" % (request.threads if threads is None
                                    else threads)]
            if request.cluster != "fire":
                argv.append("cluster=" + request.cluster)
            return argv
        return [self.build.serve, "campaign=" + self.campaign_files[i],
                "cache=" + (cache or self.cache), "outdir=" + self.out,
                "workers=%d" % (request.workers if workers is None
                                else workers),
                "threads=%d" % (request.threads if threads is None
                                else threads)]

    def prepare(self):
        """Points the next request at a directory of its own for its
        outputs, and on campaign_cold for its cache, so that it starts
        cold. Nothing is deleted until the run ends: on a journalling file
        system the deletion of one request's files slows the file writes
        of the requests after it, which would charge the benchmark's own
        clean-up to the program."""
        slot = os.path.join(self.work, "req", str(self.slots))
        self.slots += 1
        os.makedirs(slot)
        self.out = os.path.join(slot, "out")
        self.stdout = os.path.join(slot, "stdout.txt")
        self.stderr = os.path.join(slot, "stderr.txt")
        self.cache = (os.path.join(slot, "cache")
                      if self.name == "campaign_cold" else self.warm_cache)

    def observed(self):
        """Digests of stdout and of every output file. tgi_sweep names its
        output directory on stdout, and every request has a directory of
        its own, so the name is replaced before the digest."""
        with open(self.stdout, "rb") as f:
            stdout = f.read().replace(self.out.encode(), b"<outdir>")
        return hashlib.sha256(stdout).hexdigest(), digest_tree(self.out)

    def setup_pass(self, client, repeat):
        """One set-up pass: every request of the pool runs once as the
        reference it is checked against, as a threads=1 sweep on sweep_cold
        and as an in-process cold campaign on the campaign workloads. The
        first pass fills the cache campaign_warm reads; later passes use a
        cache of their own and must give the first pass's bytes. Returns
        the pass's wall time."""
        cache = self.warm_cache if repeat == 0 else os.path.join(
            self.work, "setup-cache%d" % repeat)
        start = time.perf_counter()
        for i in range(len(self.requests)):
            self.prepare()
            argv = self.argv(i, workers=0, threads=1,
                             cache=(self.cache if self.name == "campaign_cold"
                                    else cache))
            code, _, _, _ = client.request(argv, self.stdout, self.stderr)
            got = self.observed() if code == 0 else None
            if code != 0 or (repeat > 0 and got != self.expected[i]):
                self.setup_ok = False
            if repeat == 0:
                self.expected[i] = got
        return time.perf_counter() - start

    def check(self, i, code):
        """The correctness gate: exit 0 and the set-up run's bytes; warm
        requests compute nothing, cold ones see no worker failure."""
        try:
            if code != 0 or self.observed() != self.expected[i]:
                return False
            if self.name == "campaign_warm":
                return read_provenance(self.out)["computed"] == 0
            if self.name == "campaign_cold":
                return read_provenance(self.out)["worker_failures"] == 0
            return True
        except (OSError, ValueError, KeyError):
            return False


class SetupPasses:
    """The set-up passes of a run and their wall times. The first pass runs
    before any request; the others run between rounds of the measured
    loop, spread evenly over it, through a client of their own so that
    they do not count towards the requests' peak RSS. Outside load on a
    shared machine comes and goes over tens of seconds, so passes made
    back to back would all measure the same moment of it. A host probe,
    when given, is taken before every pass."""

    def __init__(self, wl, client, probe=None):
        self.wl = wl
        self.client = client
        self.probe = probe
        self.times = []
        self.starts = []
        self._run_pass()

    def _run_pass(self):
        if self.probe:
            self.probe.measure()
        self.starts.append(time.perf_counter())
        self.times.append(self.wl.setup_pass(self.client, len(self.times)))
        return self.times[-1]

    def run_due(self, fraction):
        """Runs every pass due once `fraction` of the measured period has
        passed; returns the seconds they took."""
        spent = 0.0
        while len(self.times) < SETUP_REPEATS and \
                len(self.times) <= fraction * (SETUP_REPEATS - 1):
            spent += self._run_pass()
        return spent


# ------------------------------------------------------------ host probe

class HostProbe:
    """A synthetic request made of the kinds of work the requests do, with
    none of the program's code: it spawns a process (`true`), runs a fixed
    Python loop, then publishes PROBE_FILES small files into a directory of
    its own, each written under a temporary name and renamed.

    On a shared machine the speed of the CPU and of the file system drift
    by 2x and more over minutes. On the reference box, creating a small
    file flipped between ~0.05 and ~0.6 ms of CPU for stretches of seconds
    to minutes, and the benchmark's requests publish a file for every
    point. The probe runs before every round of requests and every set-up
    pass, and the time metrics are reported at its nominal speed: a wall
    time is divided by the wall factor of the moment it was measured (the
    probe's wall time over PROBE_NOMINAL), a CPU time by the CPU factor.
    The factor of a moment is the median over the PROBE_WINDOW probes
    nearest to it. The probe's code is fixed and runs in the Python
    interpreter, so no change to the program or its build flags moves it.
    """

    def __init__(self, work):
        self.dir = os.path.join(work, "probe")
        self.spawn = shutil.which("true")
        if not self.spawn:
            raise BenchError("the host probe needs a `true` program")
        self.starts = []
        # Per probe: (wall s, CPU s) of the spawn and loop, then of the files.
        self.parts = []

    def measure(self):
        out = os.path.join(self.dir, str(len(self.starts)))
        start, cpu_start = time.perf_counter(), process_cpu_s()
        subprocess.call([self.spawn])
        x = 1
        for _ in range(PROBE_LOOP):
            x = (x * 1103515245 + 12345) & 0x7fffffff
        mid, cpu_mid = time.perf_counter(), process_cpu_s()
        os.makedirs(out)
        for j in range(PROBE_FILES):
            tmp = os.path.join(out, "tmp%d" % j)
            with open(tmp, "w") as f:
                f.write(PROBE_FILE_TEXT)
            os.rename(tmp, os.path.join(out, "point%d.csv" % j))
        end, cpu_end = time.perf_counter(), process_cpu_s()
        self.starts.append(start)
        self.parts.append((mid - start, cpu_mid - cpu_start, end - mid,
                           cpu_end - cpu_mid))

    def factors(self, at, files):
        """(wall factor, CPU factor) of the moment `at` (perf_counter),
        counting the spawn, the loop and `files` of the probe's files."""
        nearest = stats.nearest(self.starts, at, PROBE_WINDOW)
        nominal = PROBE_NOMINAL_WORK + files * PROBE_NOMINAL_FILE

        def factor(work, file_part):
            return statistics.median(
                self.parts[i][work] + self.parts[i][file_part] * files
                / PROBE_FILES for i in nearest) / nominal
        return factor(0, 2), factor(1, 3)


def process_cpu_s():
    """User+sys CPU of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + children.ru_utime
            + children.ru_stime)


# ------------------------------------------------------------------ timed

def timed_run(wl, client, setup, probe, seconds):
    """The measured loop. A round is one pass through the request pool, so
    every round carries the same mix of work; the loop runs whole rounds.
    Set-up passes due and the host probe run before each round and do not
    count towards `seconds`."""
    walls, cpus, points, rss_mb, rounds = [], [], [], [], []
    failed = 0
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while i % len(wl.requests) or \
            time.perf_counter() - start - paused < seconds:
        k = i % len(wl.requests)
        if k == 0:
            before = time.perf_counter()
            setup.run_due((before - start - paused) / seconds)
            probe.measure()
            client.restart()
            rounds.append(time.perf_counter())
            paused += rounds[-1] - before
        wl.prepare()
        code, wall, cpu, rss = client.request(wl.argv(k), wl.stdout,
                                              wl.stderr)
        if not wl.check(k, code):
            failed += 1
        walls.append(wall)
        cpus.append(cpu)
        points.append(wl.requests[k].points)
        rss_mb.append(rss / 1024.0)
        i += 1
    setup.run_due(1.0)

    size = len(wl.requests)
    rates, cpu_rates, scaled, peaks = [], [], [], []
    for r, at in enumerate(rounds):
        rate_factor = probe.factors(at, RATE_FILES)[0]
        wall_factor, cpu_factor = probe.factors(at, TIME_FILES)
        span = slice(r * size, (r + 1) * size)
        rates.append(sum(points[span]) / sum(walls[span]) * rate_factor)
        cpu_rates.append(sum(cpus[span]) / sum(points[span]) / cpu_factor)
        scaled += [w / wall_factor for w in walls[span]]
        peaks.append(max(rss_mb[span]))
    setup_scaled = [t / probe.factors(at, TIME_FILES)[0]
                    for t, at in zip(setup.times, setup.starts)]
    pct, tail_s = stats.tail(scaled)
    metrics = {
        "points_per_s": (statistics.median(rates), "1/s"),
        "request_ms_tail": (tail_s * 1e3, "ms"),
        "cpu_ms_per_point": (statistics.median(cpu_rates) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    notes = {
        "requests": len(walls), "rounds": len(rounds),
        "tail_percentile": pct,
        "request_ms_p50": statistics.median(scaled) * 1e3,
        "failed_ratio": failed / len(walls),
        "probe_ms": {name: statistics.median(p[i] for p in probe.parts) * 1e3
                     for i, name in enumerate(("work_wall", "work_cpu",
                                               "files_wall", "files_cpu"))},
        "as_measured": {
            "points_per_s": sum(points) / sum(walls),
            "request_ms_tail": stats.tail(walls)[1] * 1e3,
            "request_ms_p50": statistics.median(walls) * 1e3,
            "cpu_ms_per_point": sum(cpus) / sum(points) * 1e3,
            "setup_s": statistics.median(setup.times),
            "peak_rss_mb": max(rss_mb)},
        "samples": [[w, c, p, m] for w, c, p, m in zip(walls, cpus, points,
                                                       rss_mb)],
        "round_starts": [at - start for at in rounds],
        "probes": [[at - start] + list(p)
                   for at, p in zip(probe.starts, probe.parts)],
        "setup_starts": [at - start for at in setup.starts],
    }
    return len(walls), failed, metrics, notes


# ----------------------------------------------------------------- traced

def span_totals(spans):
    """{layer: total ns} over a traced request's spans."""
    totals = {}
    for layer, dur in spans:
        totals[layer] = totals.get(layer, 0) + dur
    return totals


def traced_run(wl, client, setup, seconds):
    """Per request: the untraced CLI request (timed, checked), for
    campaign_cold also the same campaign in-process, then the traced
    re-drive of the same request through perfbench_trace. All set-up
    passes run first; their times are not reported."""
    setup.run_due(1.0)
    sums = {}
    n = 0
    cli_cpu = cli_capacity = 0.0
    traced_points = traced_ns = overhead_ns = 0
    hits = prov_points = restarts = prov_requests = 0
    overhead = []
    attempted = failed = 0
    scratch = os.path.join(wl.work, "trace")
    spans_path = os.path.join(wl.work, "spans.json")
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        k = i % len(wl.requests)
        i += 1
        request = wl.requests[k]
        wl.prepare()
        code, wall, cpu, _ = client.request(wl.argv(k), wl.stdout, wl.stderr)
        attempted += 1
        if not wl.check(k, code):
            failed += 1
            continue
        cli_cpu += cpu
        cli_capacity += wall * (request.threads * max(1, request.workers)
                                if wl.campaign else request.threads)
        if wl.campaign:
            prov = read_provenance(wl.out)
            hits += prov["cache_hits"]
            prov_points += prov["points"]
            restarts += prov["worker_restarts"]
            prov_requests += 1
        if wl.name == "campaign_cold":
            wl.prepare()
            code, in_process, _, _ = client.request(
                wl.argv(k, workers=0), wl.stdout, wl.stderr)
            attempted += 1
            if not wl.check(k, code):
                failed += 1
                continue
            overhead.append(wall - in_process)

        shutil.rmtree(scratch, ignore_errors=True)
        if wl.campaign:
            trace_out = os.path.join(scratch, "out")
            cache = wl.cache
            if wl.name == "campaign_cold":
                cache = os.path.join(scratch, "cache")
            argv = [wl.build.trace, "mode=campaign",
                    "campaign=" + wl.campaign_files[k], "cache=" + cache,
                    "outdir=" + trace_out, "workers=%d" % request.workers,
                    "threads=%d" % request.threads,
                    "worker_exe=" + wl.build.serve,
                    "redrive=%d" % (wl.name == "campaign_cold"),
                    "scratch=" + os.path.join(scratch, "republish"),
                    "spans=" + spans_path]
        else:
            argv = [wl.build.trace, "mode=sweep", "cluster=" + request.cluster,
                    "sweep=" + ",".join(str(p) for p in request.sweep),
                    "seed=%d" % request.seed, "published=" + wl.out,
                    "scratch=" + os.path.join(scratch, "republish"),
                    "spans=" + spans_path]
        code, _, err = run_child(argv)
        if code != 0:
            raise BenchError("traced request failed: " + err.strip())
        with open(spans_path) as f:
            record = json.load(f)
        totals = span_totals(record["spans"])
        for layer, ns in totals.items():
            sums["ns:" + layer] = sums.get("ns:" + layer, 0) + ns
        for name, value in record["counts"].items():
            sums[name] = sums.get(name, 0) + value
        traced_points += record["points"]
        traced_ns += totals["request"]
        overhead_ns += len(record["spans"]) * record["span_ns"]
        n += 1
    if n == 0:
        raise BenchError("no traced request completed")

    def per_request(key):
        return sums.get(key, 0) / n

    def ms(layer):
        return per_request("ns:" + layer) / 1e6

    meter_ns = (sums.get("ns:harness.run_benchmark", 0)
                - sums.get("ns:kernels.build", 0) - sums.get("ns:sim.run", 0))
    samples = sums.get("power.samples", 0)
    traced_pps = traced_points / (traced_ns / 1e9)
    untraced_pps = traced_points / ((traced_ns - overhead_ns) / 1e9)
    metrics = {
        "power.meter_ms": (meter_ns / n / 1e6, "ms"),
        "power.samples": (samples / n, "count"),
        "power.ns_per_sample": (meter_ns / samples if samples else 0.0, "ns"),
        "sim.run_ms": (ms("sim.run"), "ms"),
        "sim.phases": (per_request("sim.phases"), "count"),
        "kernels.build_ms": (ms("kernels.build"), "ms"),
        "core.tgi_ms": (ms("core.tgi"), "ms"),
        "core.tgi_calls": (per_request("core.tgi_calls"), "count"),
        "harness.parallel_efficiency": (
            cli_cpu / cli_capacity if cli_capacity else 0.0, "ratio"),
        "harness.cache_lookup_ms": (ms("harness.cache_lookup"), "ms"),
        "harness.cache_bytes_read": (
            per_request("harness.cache_bytes_read"), "bytes"),
        "harness.cache_hit_ratio": (
            hits / prov_points if prov_points else 0.0, "ratio"),
        "harness.cache_store_ms": (ms("harness.cache_store"), "ms"),
        "harness.cache_bytes_written": (
            per_request("harness.cache_bytes_written"), "bytes"),
        "harness.publish_ms": (ms("harness.publish"), "ms"),
        "harness.published_files": (
            per_request("harness.published_files"), "count"),
        "harness.published_bytes": (
            per_request("harness.published_bytes"), "bytes"),
        "serve.worker_overhead_ms": (
            statistics.mean(overhead) * 1e3 if overhead else 0.0, "ms"),
        "serve.worker_cpu_ms": (
            per_request("serve.worker_cpu_us") / 1e3, "ms"),
        "serve.worker_restarts": (
            restarts / prov_requests if prov_requests else 0.0,
            "count"),
        "trace.points_per_s": (traced_pps, "1/s"),
        "trace.untraced_points_per_s": (untraced_pps, "1/s"),
        "trace.overhead_ratio": (untraced_pps / traced_pps, "ratio"),
    }
    notes = {"traced_requests": n}
    return attempted, failed, metrics, notes


# ------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    missing = [p for p in SOURCES if not os.path.exists(os.path.join(root, p))]
    if missing:
        raise BenchError("not a TGI source tree (missing %s); run from the "
                         "repository root" % ", ".join(missing))
    build = Build(root)
    build.run()
    fingerprint = build.fingerprint()
    nproc = fingerprint["nproc"]

    work = os.path.join(root, ".bench_build", "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    pool = workloads.cluster_pool(os.path.join(root, "clusters"))
    requests = workloads.generate(args.workload, args.seed, pool, nproc)
    wl = Workload(args.workload, build, work, requests)
    # Writes still pending from the build or an earlier run would be
    # flushed during this run's requests and slow them.
    os.sync()
    try:
        with LoopClient(build.loop) as setup_client, \
                LoopClient(build.loop) as client:
            probe = HostProbe(work)
            setup = SetupPasses(wl, setup_client, probe)
            if args.trace:
                attempted, failed, metrics, notes = traced_run(
                    wl, client, setup, args.seconds)
            else:
                attempted, failed, metrics, notes = timed_run(
                    wl, client, setup, probe, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()

    correct = wl.setup_ok and failed == 0
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint, "setup_s": setup.times,
              "requests_in_pool": len(requests), **notes}
    results = os.path.join(root, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({**record, "correct": correct, "attempted": attempted,
                   "failed": failed, "metrics": metrics}, f, indent=1)
    print("fingerprint: " + json.dumps(fingerprint))
    print("run: " + json.dumps({k: v for k, v in record.items() if k not in (
        "samples", "round_starts", "probes", "setup_starts")}))
    for name, (value, unit) in metrics.items():
        print("%-30s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as err:
        print("perfbench: error: %s" % err, file=sys.stderr)
        sys.exit(2)
