"""The benchmark's workloads: set-up, timed ops, output checks, sim counts.

Every workload is a closed loop with one op outstanding.  ``run`` times
the op on the host clock and returns its raw outcome; it may call
``pause()`` between ops, outside the timed region (the benchmark probes
the machine's speed there); ``evaluate`` runs
afterwards, outside the timed region, and checks the output against an
oracle and reads the simulated counts off the program's own state
(engine launch records, cache stats, cluster counters), so the counts
are the same whether or not the tracing wrappers are installed.

A *batch* is the unit the measuring loop times: one BFS for the
``bfs-*`` and ``dist-*`` workloads, one 512-query drive (512 ops) for
``serve-efg-hot``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro import core, datasets, dist, formats, serve, traversal
from repro.bench.harness import pick_sources
from repro.gpusim import TITAN_XP
from repro.obs.metrics import run_metrics

#: The scaled Titan Xp every workload runs on (the suite's 2048x scale).
DEVICE = TITAN_XP.scaled(2048)

#: Region 2 of the paper: device memory between the EFG footprint
#: (1.93 MB + ~0.85 MB of working arrays at RMAT-16) and the CSR one
#: (4.08 MB + the same), so EFG stays resident and CSR spills to
#: zero-copy PCIe.
REGION2_DEVICE = DEVICE.scaled_capacity(3_600_000)

#: Graph-generator seed, fixed so every workload seed runs on the same
#: graph; the workload seed picks the sources and the query stream.
GRAPH_SEED = 3

#: Sources drawn per run; ops cycle through them when a run outlasts them.
SOURCE_POOL = 256

#: Counts that are ratios over one batch, not sums.
NON_ADDITIVE = ("serve.lane_fill", "serve.result_cache_hit_ratio")


@dataclass
class Batch:
    """What one timed batch produced, after checking."""

    #: Host latency of each op, seconds.
    host_s: list
    #: Host wall time of the whole batch, seconds.
    wall_s: float
    #: Simulated latency of each op, seconds.
    sim_s: list
    #: Simulated time the batch occupied the device(s), seconds.
    sim_elapsed_s: float
    #: Edges traversed (the GTEPS numerator).
    edges: int
    #: Simulated layer counts (bit-identical traced vs untraced).
    counts: dict
    failed: int = 0
    errors: list = field(default_factory=list)
    #: Host clock (``time.perf_counter``) when the batch started and
    #: when it was checked.
    at: float = 0.0
    until: float = 0.0
    #: Per op, a key shared by ops that completed together (one serve
    #: wave answers all its queries at once); ``None``: every op alone.
    host_group: list | None = None
    sim_group: list | None = None


def engine_counts(engines) -> dict:
    """Launches and modelled DRAM / PCIe bytes over the engines' timelines."""
    launches = dram = pcie = 0.0
    for engine in engines:
        for rec in engine.records:
            launches += rec.cost.launches
            dram += rec.cost.device_bytes
            pcie += rec.cost.host_bytes
    return {"gpusim.launches": launches, "gpusim.dram_bytes": dram,
            "gpusim.pcie_bytes": pcie}


def sum_counts(batches) -> dict:
    """Simulated counts summed over ``batches`` (ratios averaged)."""
    if not batches:
        return zero_counts()
    out = {}
    for key in batches[0].counts:
        total = sum(b.counts[key] for b in batches)
        out[key] = total / len(batches) if key in NON_ADDITIVE else total
    return out


def zero_counts() -> dict:
    """Every simulated count a workload reports, at zero."""
    keys = ("core.lists_decoded", "core.decoded_values", "gpusim.launches",
            "gpusim.dram_bytes", "gpusim.pcie_bytes", "listcache.hits",
            "listcache.misses", "listcache.evictions", "traversal.levels",
            "serve.waves",
            *NON_ADDITIVE, "dist.wire_bytes", "dist.inter_bytes",
            "dist.messages")
    return dict.fromkeys(keys, 0.0)


class BFSRegion2:
    """Single-source BFS on RMAT-16 in the paper's region 2."""

    setup_note = "rmat_graph + encode + backend"
    #: Reference kernel of the host-speed probe (see ``speed.py``).
    speed_kernel = "numpy"

    def __init__(self, fmt: str) -> None:
        self.fmt = fmt
        self.name = f"bfs-{fmt}-region2"
        self.scale = 16
        self.edge_factor = 16
        self.device = REGION2_DEVICE
        #: Ops in the fixed first pass that the sim metrics cover.
        self.sim_batches = 32 if fmt == "efg" else 120

    def setup(self, seed: int, workdir: str) -> dict:
        graph = datasets.rmat_graph(self.scale, self.edge_factor,
                                    seed=GRAPH_SEED)
        if self.fmt == "efg":
            rep = core.efg_encode(graph)
            backend = traversal.EFGBackend(rep, self.device)
        else:
            rep = formats.CSRGraph.from_graph(graph)
            backend = traversal.CSRBackend(rep, self.device)
        resident = backend.graph_fits_in_memory()
        if resident != (self.fmt == "efg"):
            raise RuntimeError(
                f"{self.name}: the graph is {'' if resident else 'not '}"
                "device resident, so this is not region 2"
            )
        sources = pick_sources(graph, SOURCE_POOL + 1, seed=seed)
        return {"graph": graph, "rep": rep, "backend": backend,
                "warm": int(sources[0]), "sources": sources[1:],
                "lists_decoded": 0}

    def warmup(self, st: dict) -> None:
        traversal.bfs(st["backend"], st["warm"])
        st["lists_decoded"] = st["backend"].lists_decoded

    def run(self, st: dict, i: int, pause=None):
        source = int(st["sources"][i % len(st["sources"])])
        t0 = time.perf_counter()
        result = traversal.bfs(st["backend"], source)
        return result, time.perf_counter() - t0

    def evaluate(self, st: dict, raw) -> Batch:
        result, host = raw
        counts = zero_counts()
        counts.update(engine_counts([st["backend"].engine]))
        counts["traversal.levels"] = float(result.num_levels)
        lists = st["backend"].lists_decoded
        if self.fmt == "efg":
            # The backend's own decode counter.  The program keeps no
            # count of decoded values; with no decode cache each list
            # is decoded once per expansion, so the values decoded are
            # the edges the BFS traverses.
            counts["core.lists_decoded"] = float(lists - st["lists_decoded"])
            counts["core.decoded_values"] = float(result.edges_traversed)
        st["lists_decoded"] = lists
        expect = traversal.reference_bfs_levels(st["graph"], result.source)
        bad = not np.array_equal(result.levels, expect)
        return Batch(
            host_s=[host], wall_s=host, sim_s=[result.sim_seconds],
            sim_elapsed_s=result.sim_seconds, edges=result.edges_traversed,
            counts=counts, failed=int(bad),
            errors=[f"source {result.source}: levels differ from the "
                    "reference"] if bad else [],
        )

    def report(self, st: dict) -> dict:
        return run_metrics(st["backend"].engine)

    def efg_of(self, st: dict):
        return st["rep"] if self.fmt == "efg" else None


class ServeHot:
    """A 512-query hot/cold stream through the resident EFG service."""

    name = "serve-efg-hot"
    setup_note = "rmat_graph + save_container + open_container + service"
    speed_kernel = "numpy"

    def __init__(self) -> None:
        self.scale = 14
        self.edge_factor = 16
        self.queries = 512
        self.burst = 16
        self.hot_fraction = 0.35
        self.hot_set_size = 8
        self.deadline_mix = serve.parse_deadline_mix("none,0.5,none")
        self.cache_kb = 256
        self.sim_batches = 2

    def _service(self, container):
        return serve.GraphService.from_container(
            container, fmt="efg", device=DEVICE, cache_kb=self.cache_kb)

    def setup(self, seed: int, workdir: str) -> dict:
        graph = datasets.rmat_graph(self.scale, self.edge_factor,
                                    seed=GRAPH_SEED)
        base = os.path.join(workdir, "serve-graph")
        serve.save_container(graph, base)
        container = serve.open_container(base)
        service = self._service(container)
        return {"graph": graph, "container": container, "service": service,
                "seed": seed}

    def stream(self, st: dict, i: int):
        """Query stream of batch ``i``: each drive gets its own.

        Queries start at vertices with out-edges, as ``pick_sources``
        does for the BFS workloads: a third of R-MAT's vertices are
        isolated, and a stream that drew them would swing each wave's
        work by seed.
        """
        starts = np.flatnonzero(st["graph"].degrees > 0)
        picks, classes = serve.make_labeled_stream(
            starts.size, self.queries, hot_fraction=self.hot_fraction,
            hot_set_size=self.hot_set_size, seed=st["seed"] * 1000 + i)
        return starts[picks], classes

    def warmup(self, st: dict) -> None:
        """None: the decoded-list and result caches start cold, as under
        ``repro serve``; that cold start is what users pay."""

    def run(self, st: dict, i: int, pause=None):
        # Batch 0 uses the service set-up stood up; later batches stand
        # up a fresh one (cold caches) outside the timed region.
        service = st.pop("service", None) or self._service(st["container"])
        clock = time.perf_counter
        submitted: dict[int, float] = {}
        finished: dict[int, float] = {}
        seen, paused = 0, 0.0
        submit = service.submit

        def timed_submit(source, deadline_s=None, source_class="any"):
            t = clock()
            pending = service.num_pending
            qid = submit(source, deadline_s=deadline_s,
                         source_class=source_class)
            submitted[qid] = t
            if service.num_pending == pending:
                # Answered at the door (result cache hit or rejection).
                finished[qid] = clock()
            return qid

        def after_wave(svc) -> None:
            nonlocal seen, paused
            t = clock()
            results = svc.results
            for r in results[seen:]:
                finished.setdefault(r.qid, t)
            seen = len(results)
            if pause is not None:
                # The next burst is submitted after the pause, so no
                # query's latency includes it; the drive's wall time
                # leaves it out below.
                t = clock()
                pause()
                paused += clock() - t

        stream, classes = self.stream(st, i)
        service.submit = timed_submit
        t0 = clock()
        serve.drive(service, stream, deadline_mix=self.deadline_mix,
                    burst=self.burst, classes=classes, frame_cb=after_wave)
        wall = clock() - t0 - paused
        del service.submit
        order = sorted(submitted)
        host = [finished[q] - submitted[q] for q in order]
        return service, host, [finished[q] for q in order], wall

    def evaluate(self, st: dict, raw) -> Batch:
        service, host, host_group, wall = raw
        graph = st["graph"]
        degrees = graph.degrees
        failed, errors, edges, sim, sim_group, refs = 0, [], 0, [], [], {}
        for r in service.results:
            sim.append(r.completed_s - r.submitted_s)
            sim_group.append(r.completed_s)
            if not r.ok:
                failed += 1
                errors.append(f"query {r.qid}: {r.status}")
                continue
            if r.source not in refs:
                refs[r.source] = traversal.reference_bfs_levels(
                    graph, r.source)
            if not np.array_equal(r.levels, refs[r.source]):
                failed += 1
                errors.append(f"query {r.qid} (source {r.source}): levels "
                              "differ from the reference")
            if r.status == "done":
                edges += int(degrees[r.levels >= 0].sum())
        engine = service.backend.engine
        stats = service.backend.cache.stats
        tel = service.telemetry
        counts = zero_counts()
        counts.update(engine_counts([engine]))
        counts.update({
            "core.lists_decoded": float(service.backend.lists_decoded),
            "core.decoded_values": float(stats.miss_edges),
            "listcache.hits": float(stats.hits),
            "listcache.misses": float(stats.misses),
            "listcache.evictions": float(stats.evictions),
            "traversal.levels": float(
                engine.metrics.histograms["msbfs.union_frontier_size"].count),
            "serve.waves": float(service.num_waves),
            "serve.lane_fill": tel.lane_occupancy(),
            "serve.result_cache_hit_ratio": tel.hit_rate,
        })
        st["last_service"] = service
        return Batch(host_s=host, wall_s=wall, sim_s=sim,
                     sim_elapsed_s=service.clock, edges=edges, counts=counts,
                     failed=failed, errors=errors, host_group=host_group,
                     sim_group=sim_group)

    def report(self, st: dict) -> dict:
        service = st["last_service"]
        return run_metrics(service.backend.engine, sections={
            "serve": service.metrics_section(),
            "service": service.service_section(),
        })

    def efg_of(self, st: dict):
        return st["last_service"].backend.efg


class DistBFS:
    """Distributed BFS on RMAT-15 over two nodes of four GPUs."""

    name = "dist-bfs-2x4"
    setup_note = "rmat_graph + ShardedCluster.build"
    speed_kernel = "mixed"

    def __init__(self) -> None:
        self.scale = 15
        self.edge_factor = 16
        self.sim_batches = 55

    def setup(self, seed: int, workdir: str) -> dict:
        graph = datasets.rmat_graph(self.scale, self.edge_factor,
                                    seed=GRAPH_SEED)
        topology = dist.LinkTopology.two_tier(
            2, 4, link_bandwidth=300e9, inter_bandwidth=1e9)
        cluster = dist.ShardedCluster.build(
            graph, topology.num_gpus, DEVICE, fmt="csr", wire="ef",
            schedule="hierarchical", topology=topology, overlap=True)
        sources = pick_sources(graph, SOURCE_POOL + 1, seed=seed)
        return {"graph": graph, "cluster": cluster, "oracle": None,
                "warm": int(sources[0]), "sources": sources[1:]}

    def warmup(self, st: dict) -> None:
        dist.distributed_bfs(st["cluster"], st["warm"])

    def run(self, st: dict, i: int, pause=None):
        source = int(st["sources"][i % len(st["sources"])])
        t0 = time.perf_counter()
        result = dist.distributed_bfs(st["cluster"], source)
        return result, time.perf_counter() - t0

    def evaluate(self, st: dict, raw) -> Batch:
        result, host = raw
        cluster = st["cluster"]
        counts = zero_counts()
        counts.update(engine_counts([b.engine for b in cluster.backends]))
        counts.update({
            "traversal.levels": float(result.num_levels),
            "dist.wire_bytes": float(result.exchanged_bytes),
            "dist.inter_bytes": float(
                cluster.metrics.counters.get("dist.tier.inter.bytes", 0.0)),
            "dist.messages": float(result.messages),
        })
        if st["oracle"] is None:
            st["oracle"] = traversal.CSRBackend(
                formats.CSRGraph.from_graph(st["graph"]), DEVICE)
        expect = traversal.bfs(st["oracle"], result.source).levels
        bad = not np.array_equal(result.levels, expect)
        return Batch(
            host_s=[host], wall_s=host, sim_s=[result.sim_seconds],
            sim_elapsed_s=result.sim_seconds, edges=result.edges_traversed,
            counts=counts, failed=int(bad),
            errors=[f"source {result.source}: levels differ from "
                    "single-GPU bfs"] if bad else [],
        )

    def report(self, st: dict) -> dict:
        return dist.dist_run_metrics(st["cluster"])

    def efg_of(self, st: dict):
        return None


WORKLOADS = {
    wl.name: wl
    for wl in (BFSRegion2("efg"), BFSRegion2("csr"), ServeHot(), DistBFS())
}
