"""Seeded request generators for the benchmark's three workloads.

Every input a run sends is generated here from the run's seed; the program
under test only ever sees the generated requests. Each run is a seeded mix
over every shipped cluster (clusters/*.conf plus the built-in Fire), not one
hand-picked sweep, so a run's aggregate figures do not hinge on which
cluster a seed happens to pick.

Process-count grids are stratified: [1, cores] is cut into equal strata and
one count is drawn inside each. Different seeds give different grids, while
every grid still spans a cluster's whole range, which keeps the cost of a
run steady from seed to seed.
"""

import glob
import os
import random
from dataclasses import dataclass, field
from typing import List

SWEEP_POINTS = 24          # process counts per tgi_sweep request
SWEEP_REPEATS = 2          # sweep requests per cluster in a run's pool
CAMPAIGN_ENTRIES = 5       # entries per campaign
CAMPAIGN_REPEATS = 2       # campaigns per cluster in a run's pool
CAMPAIGN_POINTS = 8        # process counts per campaign entry
CAMPAIGN_FAULTS = "dropout=0.1,failure=0.05"

WORKLOADS = ("sweep_cold", "campaign_warm", "campaign_cold")


@dataclass(frozen=True)
class Cluster:
    name: str
    ref: str        # a clusters/*.conf path, or "fire" for the built-in
    cores: int


@dataclass
class SweepRequest:
    """One tgi_sweep run."""
    cluster: str
    sweep: List[int]
    seed: int
    threads: int

    @property
    def points(self):
        return len(self.sweep)


@dataclass
class Entry:
    name: str
    cluster: str
    sweep: List[int]
    seed: int
    meter: str = "wattsup"
    faults: str = ""


@dataclass
class CampaignRequest:
    """One tgi_serve run of a multi-entry campaign."""
    entries: List[Entry] = field(default_factory=list)
    workers: int = 0
    threads: int = 1

    @property
    def points(self):
        return sum(len(e.sweep) for e in self.entries)

    def campaign_text(self):
        lines = []
        for e in self.entries:
            lines += ["[%s]" % e.name,
                      "cluster = %s" % e.cluster,
                      "sweep = %s" % ",".join(str(p) for p in e.sweep),
                      "seed = %d" % e.seed,
                      "meter = %s" % e.meter]
            if e.faults:
                lines.append("faults = %s" % e.faults)
        return "\n".join(lines) + "\n"


def read_cluster_conf(path):
    conf = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if "=" in line:
                key, value = line.split("=", 1)
                conf[key.strip()] = value.strip()
    return conf


def cluster_pool(clusters_dir):
    """Every shipped cluster file plus the built-in Fire (8 x 2 x 8 cores)."""
    pool = []
    for path in sorted(glob.glob(os.path.join(clusters_dir, "*.conf"))):
        conf = read_cluster_conf(path)
        cores = (int(conf["nodes"]) * int(conf["cpu.cores"])
                 * int(conf["sockets"]))
        pool.append(Cluster(conf["name"], os.path.abspath(path), cores))
    pool.append(Cluster("Fire (built-in)", "fire", 128))
    return pool


def stratified_grid(rng, cores, size):
    """`size` strictly increasing process counts in [1, cores], one drawn
    uniformly inside each of `size` equal strata."""
    size = min(size, cores)
    grid = []
    for k in range(size):
        lo = 1 + (k * cores) // size
        hi = ((k + 1) * cores) // size
        grid.append(rng.randint(lo, hi))
    return grid


def campaign_layout(nproc):
    """(workers, threads) for campaign_cold: worker processes x threads
    per worker never exceeds nproc."""
    workers = max(1, nproc // 2)
    return workers, max(1, nproc // workers)


def sweep_requests(seed, pool, nproc):
    rng = random.Random("sweep_cold:%d" % seed)
    requests = [SweepRequest(c.ref, stratified_grid(rng, c.cores, SWEEP_POINTS),
                             rng.randrange(1, 2 ** 31), nproc)
                for _ in range(SWEEP_REPEATS) for c in pool]
    rng.shuffle(requests)
    return requests


def campaign_requests(seed, pool, workers, threads):
    """CAMPAIGN_REPEATS rotations of one campaign of CAMPAIGN_ENTRIES
    entries per cluster. In a rotation, campaign c takes the clusters at
    positions c, c+1, ... of a seeded cluster order, so every cluster
    appears equally often, runs meter=model exactly once (position c) and
    runs through the fault plane exactly once (a seeded offset); peak
    memory and cost then do not hinge on which cluster a seed pairs with
    the dense model meter. Entries alternate between two meter seeds, so
    entries with the same seed and meter share their reference run."""
    rng = random.Random("campaign:%d" % seed)
    order = list(pool)
    rng.shuffle(order)
    requests = []
    for _ in range(CAMPAIGN_REPEATS):
        faulted = rng.randrange(1, CAMPAIGN_ENTRIES)
        for c in range(len(order)):
            seeds = [rng.randrange(1, 2 ** 31) for _ in range(2)]
            offsets = list(range(CAMPAIGN_ENTRIES))
            rng.shuffle(offsets)
            request = CampaignRequest(workers=workers, threads=threads)
            for j, offset in enumerate(offsets):
                cluster = order[(c + offset) % len(order)]
                request.entries.append(Entry(
                    name="e%d" % j, cluster=cluster.ref,
                    sweep=stratified_grid(rng, cluster.cores,
                                          CAMPAIGN_POINTS),
                    seed=seeds[j % 2],
                    meter="model" if offset == 0 else "wattsup",
                    faults=CAMPAIGN_FAULTS if offset == faulted else ""))
            requests.append(request)
    return requests


def generate(workload, seed, pool, nproc):
    """The request pool of one run; a run cycles through it in order."""
    if workload == "sweep_cold":
        return sweep_requests(seed, pool, nproc)
    if workload == "campaign_warm":
        return campaign_requests(seed, pool, 0, 1)
    if workload == "campaign_cold":
        return campaign_requests(seed, pool, *campaign_layout(nproc))
    raise ValueError("unknown workload %r" % workload)
