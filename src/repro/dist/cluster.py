"""Sharded cluster: the machinery every distributed driver shares.

A :class:`ShardedCluster` binds one graph to ``num_gpus`` simulated
devices: the 1-D partition, one backend per shard (CSR or EFG — the
head-to-head the paper's introduction sets up), the link topology, the
wire codec and the exchange schedule.  Drivers (BFS, SSSP, PageRank)
supply only their per-GPU operator bodies to :meth:`ShardedCluster.
step`, which runs every bulk-synchronous level the same way (see
``docs/model.md``) —

* each GPU's local phase, then :meth:`pack` — dedupe/sort the
  discovered ids (optionally folding a value per id), bucket them by
  owner, and charge the pack kernel at the device frontier width
  (:data:`~repro.dist.wire.FRONTIER_ID_BYTES`);
* :meth:`exchange_buckets` — run the all-to-all through the codec and
  topology, folding the stats into the cluster metrics;
* each GPU's claim launch, charged :meth:`charge_unpack` (the
  receive-side decode) first;
* :meth:`finish_level` — price the level and advance the clock.

The cluster also owns the run's telemetry: a :class:`~repro.obs.spans.
Tracer` over the *cluster* clock (max-over-GPUs per phase, the
bulk-synchronous convention) whose level spans carry the expand /
exchange / claim breakdown, and a :class:`~repro.obs.metrics.
MetricsRegistry` of wire-byte counters — the same obs layer single-GPU
runs feed, so ``repro compare`` can gate distributed runs too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.dist.exchange import SCHEDULES, ExchangeStats, exchange
from repro.dist.partition import VertexPartition
from repro.dist.topology import LinkTopology
from repro.dist.wire import FRONTIER_ID_BYTES, WireCodec, get_codec
from repro.formats.graph import Graph
from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import KernelLaunch
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, Tracer
from repro.traversal.backends import CSRBackend, EFGBackend, GraphBackend
from repro.traversal.result import Throughput

__all__ = ["DIST_FORMATS", "DistResult", "LevelCharge", "ShardedCluster"]

#: Shard storage formats the cluster can build.
DIST_FORMATS = ("csr", "efg")

#: Pack-kernel bookkeeping per candidate id (sort pass + owner bucket).
PACK_INSTR_PER_ID = 8.0


@dataclass
class LevelCharge:
    """The recorded pricing inputs of one bulk-synchronous level.

    The clock only ever advances through :meth:`ShardedCluster.
    finish_level`, which appends one charge per level — so the
    sequence is a complete replayable account of ``cluster.clock``:
    the critical-path extractor and the what-if engine re-price these
    records (no re-traversal) and reproduce the clock bit-exactly.
    ``sync_record`` holds the step-record-shaped inputs of a serial
    post-level synchronization (PageRank's scalar allreduce), when one
    was priced into the level.
    """

    name: str
    level: int
    expand_seconds: float
    claim_seconds: float
    exchange: ExchangeStats
    sync_seconds: float = 0.0
    sync_record: dict | None = None


@dataclass(frozen=True)
class DistResult(Throughput):
    """Fields every distributed driver's result shares.

    :meth:`ShardedCluster.finish` totals them from the recorded level
    charges and metrics.
    """

    #: Bytes that crossed inter-GPU links (encoded ids + headers).
    exchanged_bytes: int
    #: Share of :attr:`sim_seconds` spent in the exchange.
    exchange_seconds: float
    #: Exchange time hidden under the local phase by the overlap
    #: pipeline.
    overlapped_seconds: float
    sim_seconds: float
    num_gpus: int
    wire: str
    schedule: str
    messages: int
    cluster: "ShardedCluster" = field(repr=False)


def _make_shard_backend(
    fmt: str, shard: Graph, device: DeviceSpec, weight_bytes: int
) -> GraphBackend:
    if fmt == "csr":
        from repro.formats.csr import CSRGraph

        return CSRBackend(
            CSRGraph.from_graph(shard), device, weight_bytes=weight_bytes
        )
    if fmt == "efg":
        from repro.core.efg import efg_encode

        return EFGBackend(
            efg_encode(shard), device, weight_bytes=weight_bytes
        )
    raise ValueError(
        f"unsupported distributed format {fmt!r}; pick from {DIST_FORMATS}"
    )


class ShardedCluster:
    """One graph partitioned across ``num_gpus`` simulated devices."""

    def __init__(
        self,
        graph: Graph,
        partition: VertexPartition,
        backends: list[GraphBackend],
        topology: LinkTopology,
        codec: WireCodec,
        schedule: str,
        fmt: str,
        overlap: bool = False,
        record_wire: bool = False,
    ) -> None:
        self.graph = graph
        self.partition = partition
        self.backends = backends
        self.topology = topology
        self.codec = codec
        self.schedule = schedule
        self.fmt = fmt
        self.overlap = overlap
        self.record_wire = record_wire
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.clock = 0.0
        self.charges: list[LevelCharge] = []
        self.reset()

    @classmethod
    def build(
        cls,
        graph: Graph,
        num_gpus: int,
        device: DeviceSpec,
        fmt: str = "csr",
        wire: str = "auto",
        schedule: str = "flat",
        topology: LinkTopology | None = None,
        with_weights: bool = False,
        overlap: bool = False,
        record_wire: bool = False,
    ) -> "ShardedCluster":
        """Partition ``graph`` and stand up one backend per shard.

        ``overlap=True`` turns on the async exchange/compute pipeline
        in the cost model: each level's expand phase hides behind the
        exchange (or vice versa), so the level costs
        ``max(expand, exchange)`` plus the unoverlapped claim.

        ``record_wire=True`` additionally trial-encodes every concrete
        wire codec on every message, recording per-codec payload sizes
        the what-if engine needs to predict codec swaps.  Off by
        default: it multiplies functional encode work without changing
        any priced charge.
        """
        if schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; pick from {SCHEDULES}"
            )
        partition = VertexPartition.even(graph.num_nodes, num_gpus)
        backends = []
        for g in range(num_gpus):
            shard = partition.subgraph(graph, g)
            wb = 4 * shard.num_edges if with_weights else 0
            backends.append(_make_shard_backend(fmt, shard, device, wb))
        if topology is None:
            topology = LinkTopology.for_device(device, num_gpus)
        elif topology.num_gpus != num_gpus:
            raise ValueError(
                f"topology is for {topology.num_gpus} GPUs, need {num_gpus}"
            )
        return cls(
            graph=graph,
            partition=partition,
            backends=backends,
            topology=topology,
            codec=get_codec(wire),
            schedule=schedule,
            fmt=fmt,
            overlap=overlap,
            record_wire=record_wire,
        )

    # -- run lifecycle ----------------------------------------------------

    @property
    def num_gpus(self) -> int:
        """Number of shards/devices."""
        return self.partition.num_gpus

    @property
    def num_nodes(self) -> int:
        """|V| of the full graph."""
        return self.graph.num_nodes

    def reset(self) -> None:
        """Fresh run: clear every engine timeline and the telemetry."""
        for b in self.backends:
            b.engine.reset_timeline()
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.clock = 0.0
        self.charges = []

    def advance(self, seconds: float) -> None:
        """Advance the cluster (bulk-synchronous) clock."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        self.clock += seconds

    def start(self, name: str, **attrs) -> Span:
        """Fresh run: :meth:`reset`, then open the algorithm span."""
        self.reset()
        return self.tracer.open(
            name, "algorithm", self.clock,
            {
                "num_gpus": self.num_gpus,
                "fmt": self.fmt,
                "wire": self.codec.name,
                "schedule": self.schedule,
                **attrs,
            },
        )

    def seed(self, source: int) -> list[np.ndarray]:
        """Per-GPU frontiers holding only ``source``, on its owner."""
        if not 0 <= source < self.num_nodes:
            raise IndexError(f"source {source} out of range")
        owner = int(self.partition.owner(np.array([source]))[0])
        return [
            np.array([source], dtype=np.int64) if g == owner else
            np.empty(0, dtype=np.int64)
            for g in range(self.num_gpus)
        ]

    def finish(self, algorithm: str, edges: int) -> dict:
        """End the run; return the :class:`DistResult` fields.

        Sets the end-of-run gauges and closes the algorithm span.  The
        exchange totals are summed over :attr:`charges` in level order,
        the overlap total is the ``dist.overlapped_seconds`` counter.
        """
        m = self.metrics
        m.set_gauge("dist.sim_seconds", self.clock)
        m.set_gauge("dist.num_gpus", float(self.num_gpus))
        m.set_gauge("dist.num_nodes", float(self.topology.num_nodes))
        m.set_gauge("dist.overlap", float(self.overlap))
        if self.clock > 0:
            m.set_gauge(f"{algorithm}.gteps", edges / self.clock / 1e9)
        wire = m.counters.get("dist.wire_bytes", 0.0)
        if edges:
            m.set_gauge("dist.wire_bytes_per_edge", wire / edges)
        self.tracer.close(self.clock)
        exchanges = [c.exchange for c in self.charges]
        # A loop, not sum(): float sum() is compensated from Python 3.12
        # on, which would move the last bits against the level clock.
        exchange_seconds = 0.0
        for ex in exchanges:
            exchange_seconds += ex.seconds
        return {
            "exchanged_bytes": sum(ex.wire_bytes for ex in exchanges),
            "exchange_seconds": exchange_seconds,
            "overlapped_seconds": m.counters.get(
                "dist.overlapped_seconds", 0.0
            ),
            "sim_seconds": self.clock,
            "num_gpus": self.num_gpus,
            "wire": self.codec.name,
            "schedule": self.schedule,
            "messages": sum(ex.messages for ex in exchanges),
            "cluster": self,
        }

    # -- the shared per-level steps ---------------------------------------

    def step(
        self,
        name: str,
        level: int,
        local: Callable[[int], tuple[np.ndarray, np.ndarray | None] | None],
        claim: Callable[
            [int, KernelLaunch, np.ndarray, np.ndarray | None], float
        ],
        *,
        kernels: tuple[str, str],
        tally: str,
        combine: str | None = None,
        frontier_size: int | None = None,
        sync_seconds: float = 0.0,
        sync_record: dict | None = None,
    ) -> tuple[int, float]:
        """Run one bulk-synchronous level; return ``(edges, tally)``.

        ``local(g)`` is GPU ``g``'s local phase: it launches its own
        kernels (the expand kernel is ``kernels[0]``) and returns the
        ids it discovered — with one value each, folded by ``combine``,
        when the exchange carries values — or ``None`` when it has
        nothing to send.  The ids are packed and exchanged, then
        ``claim(g, kernel, ids, values)`` runs inside GPU ``g``'s
        ``kernels[1]`` launch after the unpack charge.  Each phase
        costs its slowest GPU.  The claims' return values, summed in
        GPU order, annotate the level as ``tally``; ``edges`` counts
        the discovered ids.  A given ``frontier_size`` is observed and
        recorded on the level span.
        """
        attrs = {"level": level}
        if frontier_size is not None:
            self.metrics.observe("dist.frontier_size", frontier_size)
            attrs["frontier_size"] = frontier_size
        span = self.tracer.open(name, "level", self.clock, attrs)
        try:
            outgoing: list[list[np.ndarray]] = []
            out_values: list[list[np.ndarray] | None] = []
            expand_seconds = 0.0
            edges = 0
            for g, backend in enumerate(self.backends):
                before = backend.engine.elapsed_seconds
                found = local(g)
                if found is None:
                    buckets = [np.empty(0, dtype=np.int64)] * self.num_gpus
                    values = [np.empty(0, dtype=np.float64)] * self.num_gpus
                else:
                    edges += int(found[0].shape[0])
                    buckets, values = self.pack(
                        g, found[0], values=found[1], combine=combine
                    )
                outgoing.append(buckets)
                out_values.append(values)
                expand_seconds = max(
                    expand_seconds, backend.engine.elapsed_seconds - before
                )

            incoming, in_values, ex = self.exchange_buckets(
                outgoing,
                values=out_values if combine is not None else None,
                combine=combine,
            )

            claim_seconds = 0.0
            total = 0
            for g, backend in enumerate(self.backends):
                engine = backend.engine
                before = engine.elapsed_seconds
                with engine.launch(kernels[1]) as k:
                    self.charge_unpack(k, g, ex)
                    total += claim(
                        g, k, incoming[g],
                        None if in_values is None else in_values[g],
                    )
                claim_seconds = max(
                    claim_seconds, engine.elapsed_seconds - before
                )
            self.finish_level(
                span,
                expand_seconds,
                ex,
                claim_seconds,
                sync_seconds=sync_seconds,
                sync_record=sync_record,
                expand_kernel=kernels[0],
                claim_kernel=kernels[1],
                edges_expanded=edges,
                **{tally: total},
            )
        finally:
            self.tracer.close(self.clock)
        return edges, total

    def pack(
        self,
        gpu: int,
        ids: np.ndarray,
        values: np.ndarray | None = None,
        combine: str | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray] | None]:
        """Dedupe + owner-bucket one GPU's discoveries; charge the kernel.

        Returns one sorted-unique id bucket per owner (and the folded
        values per bucket when ``values`` is given).  The bucket write
        is charged at the device frontier width — the wire encoding is
        charged later, on the link, by :meth:`exchange_buckets`.
        """
        backend = self.backends[gpu]
        ids = np.asarray(ids, dtype=np.int64)
        with backend.engine.launch("dist_pack") as k:
            uniq, inverse = np.unique(ids, return_inverse=True)
            folded: np.ndarray | None = None
            if values is not None:
                values = np.asarray(values, dtype=np.float64)
                if combine == "min":
                    folded = np.full(uniq.shape[0], np.inf, dtype=np.float64)
                    np.minimum.at(folded, inverse, values)
                elif combine == "sum":
                    folded = np.zeros(uniq.shape[0], dtype=np.float64)
                    np.add.at(folded, inverse, values)
                else:
                    raise ValueError(f"unknown combiner {combine!r}")
            cuts = np.searchsorted(uniq, self.partition.boundaries)
            buckets = [
                uniq[cuts[h] : cuts[h + 1]] for h in range(self.num_gpus)
            ]
            val_buckets = None
            if folded is not None:
                val_buckets = [
                    folded[cuts[h] : cuts[h + 1]] for h in range(self.num_gpus)
                ]
            k.instructions(
                PACK_INSTR_PER_ID * ids.shape[0]
                + self.codec.encode_instr_per_id * uniq.shape[0]
            )
            k.write("work:frontier", int(uniq.shape[0]), FRONTIER_ID_BYTES)
            if folded is not None:
                k.write("work:frontier", int(uniq.shape[0]), 4)
        return buckets, val_buckets

    def exchange_buckets(
        self,
        outgoing: list[list[np.ndarray]],
        values: list[list[np.ndarray]] | None = None,
        combine: str | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray] | None, ExchangeStats]:
        """All-to-all through the codec/topology; fold stats into metrics."""
        incoming, in_vals, stats = exchange(
            outgoing,
            self.partition,
            self.topology,
            self.codec,
            schedule=self.schedule,
            values=values,
            combine=combine,
            record_trials=self.record_wire,
        )
        m = self.metrics
        m.inc("dist.wire_bytes", stats.wire_bytes)
        m.inc("dist.id_bytes", stats.id_bytes)
        m.inc("dist.value_bytes", stats.value_bytes)
        m.inc("dist.header_bytes", stats.header_bytes)
        m.inc("dist.messages", stats.messages)
        m.inc("dist.sent_ids", stats.sent_ids)
        for name, count in stats.codec_messages.items():
            m.inc(f"dist.codec.{name}", count)
        for name, instr in stats.codec_instructions.items():
            m.inc(f"dist.codec_instr.{name}", instr)
        for tier in stats.tier_bytes:
            m.inc(f"dist.tier.{tier}.bytes", stats.tier_bytes[tier])
            m.inc(f"dist.tier.{tier}.messages", stats.tier_messages[tier])
            m.inc(
                f"dist.tier.{tier}.transfer_seconds",
                stats.tier_transfer_seconds[tier],
            )
            m.inc(
                f"dist.tier.{tier}.latency_seconds",
                stats.tier_latency_seconds[tier],
            )
        m.observe("dist.level_wire_bytes", stats.wire_bytes)
        return incoming, in_vals, stats

    def charge_unpack(self, kernel, gpu: int, stats: ExchangeStats) -> None:
        """Receive-side decode instructions for one GPU's wire ids."""
        received = int(stats.received_ids_per_gpu[gpu])
        if received:
            kernel.instructions(self.codec.decode_instr_per_id * received)

    def level_seconds(
        self,
        expand_seconds: float,
        stats: ExchangeStats,
        claim_seconds: float,
    ) -> tuple[float, float]:
        """``(total, overlapped)`` seconds of one bulk-synchronous level.

        Serial cost model (default): the three phases queue one after
        another.  With :attr:`overlap` the exchange streams buckets
        while expansion is still producing them (double-buffered
        pipeline), so the level pays ``max(expand, exchange)`` plus the
        claim that needs the full incoming set; ``overlapped`` is the
        time hidden under the longer phase.
        """
        if not self.overlap:
            return expand_seconds + stats.seconds + claim_seconds, 0.0
        overlapped = min(expand_seconds, stats.seconds)
        total = max(expand_seconds, stats.seconds) + claim_seconds
        self.metrics.inc("dist.overlapped_seconds", overlapped)
        return total, overlapped

    def finish_level(
        self,
        span: Span,
        expand_seconds: float,
        stats: ExchangeStats,
        claim_seconds: float,
        *,
        sync_seconds: float = 0.0,
        sync_record: dict | None = None,
        expand_kernel: str = "",
        claim_kernel: str = "",
        **annotations,
    ) -> None:
        """Price one level, advance the clock, record and annotate it.

        The tail of :meth:`step`: compute the level's wall-clock via
        :meth:`level_seconds` (overlap-aware), advance the cluster
        clock (plus any serial post-level ``sync_seconds``, e.g.
        PageRank's scalar allreduce), append the :class:`LevelCharge`
        the replay engines consume, and attach the canonical
        annotations (:func:`repro.dist.report.level_annotations`) plus
        any driver-specific ``annotations`` to the level span.
        """
        # Function-level import: report imports this module at top level.
        from repro.dist.report import level_annotations

        total, overlapped = self.level_seconds(
            expand_seconds, stats, claim_seconds
        )
        advance = total + sync_seconds if sync_seconds else total
        self.advance(advance)
        self.charges.append(
            LevelCharge(
                name=span.name,
                level=int(span.attrs.get("level", len(self.charges))),
                expand_seconds=expand_seconds,
                claim_seconds=claim_seconds,
                exchange=stats,
                sync_seconds=sync_seconds,
                sync_record=sync_record,
            )
        )
        span.annotate(
            **level_annotations(
                expand_seconds,
                stats,
                claim_seconds,
                overlapped,
                self.level_bound(expand_seconds, stats, claim_seconds),
                sync_seconds=sync_seconds,
                expand_kernel=expand_kernel,
                claim_kernel=claim_kernel,
            ),
            **annotations,
        )

    @staticmethod
    def level_bound(
        expand_seconds: float, stats: ExchangeStats, claim_seconds: float
    ) -> str:
        """Label the binding term of one level — ``link`` means the
        exchange serialization dominated (the scaling bottleneck the
        wire codecs attack), ``latency`` the per-message cost."""
        terms = {
            "expand": expand_seconds,
            "link": stats.transfer_seconds,
            "latency": stats.latency_seconds,
            "claim": claim_seconds,
        }
        return max(terms.items(), key=lambda kv: kv[1])[0]
