"""Tests of the benchmark's own logic: the tail-percentile rule, the
quartile spread, the host probe and its factors, the workload generator,
the set-up pass schedule and the span totals.

    python3 -m unittest discover -s perfbench/tests
"""

import os
import random
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

POOL = [workloads.Cluster("Small", "/c/small.conf", 96),
        workloads.Cluster("Big", "/c/big.conf", 1024),
        workloads.Cluster("Fire (built-in)", "fire", 128)]


class TailRuleTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(199), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 95.0)
        self.assertEqual(stats.tail_percentile(10000), 95.0)

    def test_chosen_percentile_leaves_ten_beyond(self):
        for n in range(20, 3000, 97):
            pct = stats.tail_percentile(n)
            values = list(range(n))
            beyond = sum(v > stats.nearest_rank(values, pct) for v in values)
            self.assertGreaterEqual(beyond, 10, n)

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(stats.tail_percentile(5), 50.0)
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), (50.0, 2.0))

    def test_rank_rounds_before_ceiling(self):
        self.assertEqual(stats.rank(99.9, 10000), 9990)
        self.assertEqual(stats.rank(95.0, 200), 190)
        self.assertEqual(stats.rank(50.0, 1), 1)

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        random.Random(1).shuffle(values)
        self.assertEqual(stats.nearest_rank(values, 95.0), 95.0)
        self.assertEqual(stats.nearest_rank(values, 50.0), 50.0)
        self.assertEqual(stats.nearest_rank(values, 100.0), 100.0)
        self.assertEqual(stats.tail(values), (90.0, 90.0))


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([4.0] * 10), 0.0)

    def test_spread_scales_with_dispersion(self):
        narrow = [100.0 + d for d in (-1, 0, 1, -1, 0, 1, -1, 0, 1, 0)]
        wide = [100.0 + 10 * d for d in (-1, 0, 1, -1, 0, 1, -1, 0, 1, 0)]
        self.assertAlmostEqual(stats.quartile_spread(wide),
                               10 * stats.quartile_spread(narrow))


class NearestTest(unittest.TestCase):
    def test_indices_of_the_nearest_samples(self):
        times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        self.assertEqual(sorted(stats.nearest(times, 2.2, 3)), [1, 2, 3])
        self.assertEqual(sorted(stats.nearest(times, 5.0, 3)), [3, 4, 5])
        self.assertEqual(stats.nearest(times, -9.0, 1), [0])

    def test_fewer_samples_than_asked_use_all(self):
        self.assertEqual(sorted(stats.nearest([0.0, 1.0], 0.0, 5)), [0, 1])


class HostProbeTest(unittest.TestCase):
    def probe(self, parts):
        probe = run.HostProbe.__new__(run.HostProbe)
        probe.starts = [float(t) for t in range(len(parts))]
        probe.parts = parts
        return probe

    def nominal(self):
        file_part = run.PROBE_FILES * run.PROBE_NOMINAL_FILE
        return (run.PROBE_NOMINAL_WORK, run.PROBE_NOMINAL_WORK, file_part,
                file_part)

    def test_nominal_probe_gives_unit_factors(self):
        probe = self.probe([self.nominal()] * 5)
        for files in (0, run.TIME_FILES, run.RATE_FILES):
            wall, cpu = probe.factors(2.0, files)
            self.assertAlmostEqual(wall, 1.0)
            self.assertAlmostEqual(cpu, 1.0)

    def test_files_count_in_proportion(self):
        work, _, file_part, _ = self.nominal()
        slow_files = (work, work, 11 * file_part, 11 * file_part)
        probe = self.probe([slow_files] * 5)
        for files in (0, run.TIME_FILES, run.RATE_FILES):
            nominal = work + files * run.PROBE_NOMINAL_FILE
            expected = (work + 11 * files * run.PROBE_NOMINAL_FILE) / nominal
            self.assertAlmostEqual(probe.factors(2.0, files)[0], expected)
        self.assertGreater(probe.factors(2.0, run.RATE_FILES)[0],
                           probe.factors(2.0, run.TIME_FILES)[0])

    def test_one_outlier_in_the_window_does_not_move_it(self):
        parts = [self.nominal()] * 9
        parts[4] = tuple(10 * v for v in self.nominal())
        probe = self.probe(parts)
        self.assertAlmostEqual(probe.factors(4.0, run.RATE_FILES)[0], 1.0)

    def test_factor_follows_the_moment(self):
        slow = tuple(2 * v for v in self.nominal())
        probe = self.probe([self.nominal()] * 5 + [slow] * 5)
        self.assertAlmostEqual(probe.factors(0.0, run.TIME_FILES)[0], 1.0)
        self.assertAlmostEqual(probe.factors(9.0, run.TIME_FILES)[1], 2.0)

    def test_measures_a_probe(self):
        with tempfile.TemporaryDirectory(dir=HERE) as work:
            probe = run.HostProbe(work)
            probe.measure()
            probe.measure()
            self.assertEqual(len(probe.parts), 2)
            self.assertTrue(all(v >= 0 for p in probe.parts for v in p))
            self.assertTrue(all(p[0] > 0 and p[2] > 0 for p in probe.parts))
            self.assertEqual(len(os.listdir(os.path.join(work, "probe", "1"))),
                             run.PROBE_FILES)


class FakeProbe:
    def __init__(self):
        self.measured = 0

    def measure(self):
        self.measured += 1


class FakeWorkload:
    def __init__(self):
        self.passes = []

    def setup_pass(self, client, repeat):
        self.passes.append(repeat)
        return 0.5


class SetupPassesTest(unittest.TestCase):
    def test_first_pass_runs_before_the_loop(self):
        wl = FakeWorkload()
        setup = run.SetupPasses(wl, client=None)
        self.assertEqual(wl.passes, [0])
        self.assertEqual(setup.times, [0.5])

    def test_passes_are_spread_evenly_over_the_period(self):
        wl = FakeWorkload()
        setup = run.SetupPasses(wl, client=None)
        later = run.SETUP_REPEATS - 1
        self.assertEqual(setup.run_due(0.99 / later), 0.0)
        self.assertEqual(setup.run_due(1.0 / later), 0.5)
        self.assertEqual(setup.run_due(3.0 / later), 1.0)
        self.assertEqual(wl.passes, [0, 1, 2, 3])
        self.assertEqual(setup.run_due(3.5 / later), 0.0)

    def test_period_end_runs_every_remaining_pass_once(self):
        wl = FakeWorkload()
        setup = run.SetupPasses(wl, client=None)
        setup.run_due(1.0)
        setup.run_due(1.0)
        self.assertEqual(wl.passes, list(range(run.SETUP_REPEATS)))
        self.assertEqual(len(setup.times), run.SETUP_REPEATS)

    def test_probe_runs_before_every_pass(self):
        probe = FakeProbe()
        setup = run.SetupPasses(FakeWorkload(), client=None, probe=probe)
        setup.run_due(1.0)
        self.assertEqual(probe.measured, run.SETUP_REPEATS)
        self.assertEqual(len(setup.starts), run.SETUP_REPEATS)
        self.assertEqual(setup.starts, sorted(setup.starts))


class SpanTotalsTest(unittest.TestCase):
    def test_sums_durations_per_layer(self):
        spans = [["sim.run", 5], ["core.tgi", 2], ["sim.run", 7],
                 ["request", 20]]
        self.assertEqual(run.span_totals(spans),
                         {"sim.run": 12, "core.tgi": 2, "request": 20})


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for name in workloads.WORKLOADS:
            a = workloads.generate(name, 7, POOL, 4)
            b = workloads.generate(name, 7, POOL, 4)
            self.assertEqual(a, b, name)
            if name != "sweep_cold":
                self.assertEqual([r.campaign_text() for r in a],
                                 [r.campaign_text() for r in b])

    def test_different_seeds_differ(self):
        for name in workloads.WORKLOADS:
            requests = [workloads.generate(name, s, POOL, 4)
                        for s in range(1, 6)]
            for i in range(len(requests)):
                for j in range(i + 1, len(requests)):
                    self.assertNotEqual(requests[i], requests[j], name)

    def test_grid_is_stratified(self):
        rng = random.Random(3)
        for cores in (1, 5, 24, 96, 1024):
            for size in (1, 8, 24):
                grid = workloads.stratified_grid(rng, cores, size)
                self.assertEqual(len(grid), min(size, cores))
                self.assertEqual(grid, sorted(set(grid)))
                self.assertGreaterEqual(grid[0], 1)
                self.assertLessEqual(grid[-1], cores)
                width = cores / len(grid)
                for k, p in enumerate(grid):
                    self.assertGreater(p, k * width)
                    self.assertLessEqual(p, (k + 1) * width)

    def test_sweep_pool_covers_every_cluster_equally(self):
        requests = workloads.generate("sweep_cold", 11, POOL, 4)
        counts = {c.ref: 0 for c in POOL}
        for r in requests:
            counts[r.cluster] += 1
            self.assertEqual(r.threads, 4)
            self.assertEqual(r.points, workloads.SWEEP_POINTS)
        self.assertEqual(set(counts.values()), {workloads.SWEEP_REPEATS})

    def test_campaign_mix(self):
        for seed in range(1, 20):
            cold = workloads.generate("campaign_cold", seed, POOL, 4)
            warm = workloads.generate("campaign_warm", seed, POOL, 4)
            self.assertEqual([r.entries for r in cold],
                             [r.entries for r in warm])
            for request in cold:
                self.assertLessEqual(request.workers * request.threads, 4)
                self.assertGreaterEqual(request.workers, 1)
                entries = request.entries
                self.assertEqual(sum(e.meter == "model" for e in entries), 1)
                self.assertEqual(sum(bool(e.faults) for e in entries), 1)
                self.assertFalse(any(e.faults and e.meter == "model"
                                     for e in entries))
                # Entries sharing seed and meter share a reference run.
                keys = [(e.seed, e.meter) for e in entries]
                self.assertLess(len(set(keys)), len(keys))
            for request in warm:
                self.assertEqual((request.workers, request.threads), (0, 1))

    def test_campaign_roles_rotate_through_every_cluster(self):
        pool = POOL + [workloads.Cluster("C%d" % i, "/c/%d.conf" % i, 64)
                       for i in range(4)]
        for seed in range(1, 10):
            cold = workloads.generate("campaign_cold", seed, pool, 4)
            repeats = workloads.CAMPAIGN_REPEATS
            self.assertEqual(len(cold), repeats * len(pool))
            entries = [e for r in cold for e in r.entries]
            for cluster in pool:
                mine = [e for e in entries if e.cluster == cluster.ref]
                self.assertEqual(len(mine),
                                 repeats * workloads.CAMPAIGN_ENTRIES)
                self.assertEqual(sum(e.meter == "model" for e in mine),
                                 repeats)
                self.assertEqual(sum(bool(e.faults) for e in mine), repeats)
            for request in cold:
                clusters = [e.cluster for e in request.entries]
                self.assertEqual(len(set(clusters)), len(clusters))

    def test_campaign_layout_never_oversubscribes(self):
        for nproc in range(1, 65):
            workers, threads = workloads.campaign_layout(nproc)
            self.assertGreaterEqual(workers, 1)
            self.assertLessEqual(workers * threads, max(nproc, 1))

    def test_shipped_clusters_are_parsed(self):
        clusters = os.path.join(HERE, "..", "..", "clusters")
        if not os.path.isdir(clusters):
            self.skipTest("no clusters/ directory beside the benchmark")
        pool = workloads.cluster_pool(clusters)
        self.assertEqual(pool[-1].ref, "fire")
        self.assertGreaterEqual(len(pool), 2)
        for cluster in pool:
            self.assertGreaterEqual(cluster.cores, workloads.SWEEP_POINTS)


if __name__ == "__main__":
    unittest.main()
