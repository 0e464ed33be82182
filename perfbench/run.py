"""Two-clock benchmark of the compressed-graph simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bfs-efg-region2 --seed 1 \
        --seconds 12 --trace 0

Runs one workload in this process on one thread, checks every output,
and prints every metric by name and unit; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
wrappers installed.  With ``--trace 1`` they are the per-layer ones:
every batch runs untraced and then with every layer entry point rebound
to a timing wrapper (see ``tracing.py``), and the run reports each
layer's self time, its simulated counts, and the tracing overhead.

Host time is the wall clock of this Python process, rescaled by the
machine's speed as measured by a fixed reference kernel between batches
(see ``speed.py``); simulated time is the cost model's device clock.
The result and, when traced, every span are also written under
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median and the last one is used.
SETUP_REPS = 3

#: Independent samples a tail percentile must leave beyond it.
TAIL_OPS = 10

END_TO_END = {
    "setup_s": "s",
    "host_op_p50_ms": "ms",
    "host_op_tail_ms": "ms",
    "host_ops_per_s": "1/s",
    "sim_op_p50_us": "us",
    "sim_op_tail_us": "us",
    "sim_ops_per_s": "1/s",
    "sim_gteps": "GTEPS",
    "peak_rss_mb": "MB",
    "ok_ops_frac": "ratio",
}

#: Per-layer metric -> (unit, source).  ``("span", name, field)`` reads
#: the traced first pass; ``("count", key)`` a simulated count;
#: ``("setup", name)`` the median over the set-ups of a span's total.
PER_LAYER = {
    "datasets.generate_s": ("s", ("setup", "datasets.generate")),
    "core.efg_encode_s": ("s", ("setup", "core.efg_encode")),
    "core.efg_bytes_per_edge": ("B", None),
    "formats.csr_build_s": ("s", ("setup", "formats.csr_build")),
    "serve.container_save_s": ("s", ("setup", "serve.container_save")),
    "serve.container_open_s": ("s", ("setup", "serve.container_open")),
    "core.decode_lists_calls": ("count", ("span", "core.decode_lists", "calls")),
    "core.decode_lists_self_s": ("s", ("span", "core.decode_lists", "self_s")),
    "core.lists_decoded": ("count", ("count", "core.lists_decoded")),
    "core.decoded_values": ("count", ("count", "core.decoded_values")),
    "core.decode_ns_per_value": ("ns", None),
    "ef.extract_fields_calls": ("count", ("span", "ef.extract_fields", "calls")),
    "ef.extract_fields_self_s": ("s", ("span", "ef.extract_fields", "self_s")),
    "backends.expand_calls": ("count", ("span", "backends.expand", "calls")),
    "backends.expand_self_s": ("s", ("span", "backends.expand", "self_s")),
    "backends.charge_self_s": ("s", ("span", "backends.charge", "self_s")),
    "gpusim.charge_calls": ("count", ("span", "gpusim.charge", "calls")),
    "gpusim.charge_self_s": ("s", ("span", "gpusim.charge", "self_s")),
    "gpusim.stream_transfer_bytes_self_s": (
        "s", ("span", "gpusim.stream_transfer_bytes", "self_s")),
    "gpusim.launches": ("count", ("count", "gpusim.launches")),
    "gpusim.dram_bytes": ("B", ("count", "gpusim.dram_bytes")),
    "gpusim.pcie_bytes": ("B", ("count", "gpusim.pcie_bytes")),
    "listcache.probe_self_s": ("s", ("span", "listcache.probe", "self_s")),
    "listcache.get_many_self_s": ("s", ("span", "listcache.get_many", "self_s")),
    "listcache.put_many_self_s": ("s", ("span", "listcache.put_many", "self_s")),
    "listcache.hits": ("count", ("count", "listcache.hits")),
    "listcache.misses": ("count", ("count", "listcache.misses")),
    "listcache.evictions": ("count", ("count", "listcache.evictions")),
    "listcache.hit_ratio": ("ratio", None),
    "traversal.driver_self_s": ("s", ("span", "traversal.driver", "self_s")),
    "traversal.levels": ("count", ("count", "traversal.levels")),
    "primitives.self_s": ("s", ("span", "primitives", "self_s")),
    "serve.submit_self_s": ("s", ("span", "serve.submit", "self_s")),
    "serve.step_wave_self_s": ("s", ("span", "serve.step_wave", "self_s")),
    "serve.waves": ("count", ("count", "serve.waves")),
    "serve.lane_fill": ("ratio", ("count", "serve.lane_fill")),
    "serve.result_cache_hit_ratio": (
        "ratio", ("count", "serve.result_cache_hit_ratio")),
    "telemetry.self_s": ("s", ("span", "telemetry", "self_s")),
    "dist.exchange_calls": ("count", ("span", "dist.exchange", "calls")),
    "dist.exchange_self_s": ("s", ("span", "dist.exchange", "self_s")),
    "dist.wire_self_s": ("s", ("span", "dist.wire", "self_s")),
    "dist.wire_bytes": ("B", ("count", "dist.wire_bytes")),
    "dist.inter_bytes": ("B", ("count", "dist.inter_bytes")),
    "dist.messages": ("count", ("count", "dist.messages")),
    "obs.run_metrics_s": ("s", None),
    "trace.overhead_ms": ("ms", None),
    "host.kernel_ms": ("ms", None),
}


def _sh(*cmd: str) -> str | None:
    import subprocess

    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def source_digest() -> str:
    """SHA-256 over the path and bytes of every file of ``src/repro``."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted((src / "repro").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint() -> dict:
    """Machine, interpreter and source identity stamped on every result."""
    import platform

    import numpy

    sha = _sh("git", "rev-parse", "HEAD")
    status = _sh("git", "status", "--porcelain") if sha else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
    }


def tail(values, groups=None) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ops of at least
    :data:`TAIL_OPS` groups beyond it (the maximum when there are fewer).

    Ops that share a group completed together and are one sample: the
    16 queries of a serve wave wait for the same wave.  Without
    ``groups`` every op is its own sample.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    beyond = set()
    for j in range(len(order) - 1, -1, -1):
        group = groups[order[j]] if groups else j
        if len(beyond) >= TAIL_OPS and group not in beyond:
            return values[order[j]], 100.0 * (j + 1) / len(order)
        beyond.add(group)
    return values[order[-1]], 100.0


def _run(wl, st, i: int, tracer, pause):
    """Time batch ``i``, with the wrappers installed when ``tracer`` is set."""
    if tracer is None:
        return wl.run(st, i, pause)
    tracer.install()
    tracer.op = i
    try:
        return wl.run(st, i, pause)
    finally:
        tracer.uninstall()


def measure(wl, st, seconds: float, tracer=None, probe=None) -> tuple:
    """Run batches until ``seconds`` of timed op time and the first pass
    (``wl.sim_batches``) are both done, checking each one untimed.

    Returns one list of batches, or with a ``tracer`` two: every batch
    runs untraced and then traced, so both passes see the same ops and
    the same machine load.  An op that raises is recorded as failed in
    the pass it ran in and ends the measurement.  A ``probe`` samples
    the machine's speed between ops, outside the timed region.
    """
    from workloads import Batch, zero_counts

    pause = probe.maybe_probe if probe is not None else None
    passes = ([], []) if tracer is not None else ([],)
    spent, i = 0.0, 0
    while i < wl.sim_batches or spent < seconds:
        if pause is not None:
            pause()
        for batches, t in zip(passes, (None, tracer)):
            t0 = time.perf_counter()
            try:
                batch = wl.evaluate(st, _run(wl, st, i, t, pause))
            except Exception as exc:  # an op that raises is a failed op
                wall = time.perf_counter() - t0
                batches.append(Batch(
                    host_s=[wall], wall_s=wall, sim_s=[], sim_elapsed_s=0.0,
                    edges=0, counts=zero_counts(), failed=1,
                    errors=[f"batch {i} raised {exc!r}"], at=t0,
                    until=time.perf_counter()))
                return passes
            batch.at, batch.until = t0, time.perf_counter()
            batches.append(batch)
            spent += batch.wall_s
        i += 1
    return passes


def summarize(wl, batches, scale=None) -> dict:
    """End-to-end metrics (except set-up time and memory), the first
    pass's simulated counts, and the bookkeeping printed beside them.
    ``scale(batch)`` multiplies the batch's host times (default 1)."""
    from workloads import sum_counts

    factors = [scale(b) if scale else 1.0 for b in batches]
    host = [h * f for b, f in zip(batches, factors) for h in b.host_s]
    first = batches[:wl.sim_batches]
    sim = [s for b in first for s in b.sim_s] or [0.0]
    sim_elapsed = sum(b.sim_elapsed_s for b in first) or float("inf")
    # Completion groups, unique across batches.
    host_groups = [(i, g) for i, b in enumerate(batches)
                   for g in b.host_group or range(len(b.host_s))]
    sim_groups = [(i, g) for i, b in enumerate(first)
                  for g in b.sim_group or range(len(b.sim_s))]
    host_tail, host_pct = tail(host or [0.0], host_groups or None)
    sim_tail, sim_pct = tail(sim, sim_groups or None)
    failed = sum(b.failed for b in batches)
    return {
        "host_op_p50_ms": statistics.median(host or [0.0]) * 1e3,
        "host_op_tail_ms": host_tail * 1e3,
        "host_ops_per_s": (
            len(host) / sum(b.wall_s * f for b, f in zip(batches, factors))
            if host else 0.0),
        "sim_op_p50_us": statistics.median(sim) * 1e6,
        "sim_op_tail_us": sim_tail * 1e6,
        "sim_ops_per_s": len(sim) / sim_elapsed,
        "sim_gteps": sum(b.edges for b in first) / sim_elapsed / 1e9,
        "ok_ops_frac": 1.0 - failed / max(len(host), 1),
        "counts": sum_counts(first),
        "host_ops": len(host),
        "host_tail_pct": host_pct,
        "sim_ops": len(sim),
        "sim_tail_pct": sim_pct,
        "failed": failed,
        "errors": [e for b in batches for e in b.errors],
    }


def layer_metrics(wl, st, tracer, counts, setup_ops) -> dict:
    """Per-layer metrics from the traced run's spans and counts."""
    spans = tracer.totals(range(wl.sim_batches))
    setups = [tracer.totals([op]) for op in setup_ops]
    out = {}
    for name, (_, source) in PER_LAYER.items():
        if source is None:
            continue
        if source[0] == "span":
            out[name] = float(spans.get(source[1], {}).get(source[2], 0.0))
        elif source[0] == "count":
            out[name] = float(counts[source[1]])
        else:
            out[name] = statistics.median(
                s.get(source[1], {}).get("incl_s", 0.0) for s in setups)
    decoded = counts["core.decoded_values"]
    decode_s = spans.get("core.decode_lists", {}).get("incl_s", 0.0)
    out["core.decode_ns_per_value"] = decode_s / decoded * 1e9 if decoded else 0.0
    lookups = counts["listcache.hits"] + counts["listcache.misses"]
    out["listcache.hit_ratio"] = (
        counts["listcache.hits"] / lookups if lookups else 0.0)
    efg = wl.efg_of(st)
    out["core.efg_bytes_per_edge"] = (
        efg.nbytes / efg.num_edges if efg is not None else 0.0)
    return out


def compare_passes(plain, traced) -> list:
    """Every simulated count or ``sim_*`` metric that differs between the
    untraced and the traced pass."""
    errors = []
    for key in sorted(plain["counts"]):
        if plain["counts"][key] != traced["counts"].get(key):
            errors.append(f"count {key} differs traced vs untraced: "
                          f"{traced['counts'].get(key)} != "
                          f"{plain['counts'][key]}")
    for key in END_TO_END:
        if key.startswith("sim_") and plain[key] != traced[key]:
            errors.append(f"{key} differs traced vs untraced: "
                          f"{traced[key]} != {plain[key]}")
    return errors


#: Fingerprint fields two results must share to be compared.
SAME_CODE = ("git_sha", "git_dirty", "source_sha256")


def region2_ratio(seed: int, fp: dict) -> str | None:
    """EFG/CSR simulated GTEPS from both region-2 results of ``seed``,
    when both were made from the code fingerprinted as ``fp``."""
    from repro.bench.paper_data import CLAIMS

    gteps = {}
    for fmt in ("efg", "csr"):
        path = OUT / f"bfs-{fmt}-region2-seed{seed}-trace0.json"
        if not path.is_file():
            return None
        result = json.loads(path.read_text())
        if any(result["fingerprint"].get(k) != fp[k] for k in SAME_CODE):
            return None
        gteps[fmt] = result["metrics"]["sim_gteps"]["value"]
    lo, hi = CLAIMS["efg_vs_oocore_csr_speedup"]
    ratio = gteps["efg"] / gteps["csr"]
    where = "inside" if lo <= ratio <= hi else "outside"
    return (f"region 2, simulated EFG/CSR GTEPS = {gteps['efg']:.3f}/"
            f"{gteps['csr']:.3f} = {ratio:.2f}x, {where} the paper's "
            f"{lo}-{hi}x band (Titan Xp, Fig. 1 / Sec. VIII). The cost model "
            "has no hardware reference beyond these paper numbers.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import resource

    import speed
    import tracing
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; pick from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    probe = speed.SpeedProbe(wl.speed_kernel)

    # Each set-up is scaled by the speed probed just before and after it.
    setup_runs, setup_scaled, setup_ops, st = [], [], [], None
    around = probe.probe()
    for k in range(SETUP_REPS):
        st = None
        if tracer is not None:
            tracer.install()
            tracer.op = f"setup{k}"
            setup_ops.append(tracer.op)
        t0 = time.perf_counter()
        try:
            st = wl.setup(args.seed, str(OUT))
        finally:
            setup_runs.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()
        after = probe.probe()
        setup_scaled.append(setup_runs[-1] * probe.reference_s
                            / statistics.median(around + after))
        around = after
    wl.warmup(st)

    passes = measure(wl, st, args.seconds, tracer, probe)
    probe.probe()
    plain = summarize(wl, passes[0])
    errors, attempted, failed = plain["errors"], plain["host_ops"], plain["failed"]
    if tracer is None:
        scaled = summarize(wl, passes[0],
                           lambda b: probe.scale_over(b.at, b.until))
        metrics = {k: scaled[k] for k in END_TO_END if k in scaled}
        metrics["setup_s"] = statistics.median(setup_scaled)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = END_TO_END
    else:
        traced = summarize(wl, passes[1])
        errors = errors + traced["errors"] + compare_passes(plain, traced)
        attempted += traced["host_ops"]
        failed += traced["failed"]
        metrics = layer_metrics(wl, st, tracer, plain["counts"], setup_ops)
        tracer.install()
        tracer.op = "report"
        t0 = time.perf_counter()
        try:
            wl.report(st)
        finally:
            metrics["obs.run_metrics_s"] = time.perf_counter() - t0
            tracer.uninstall()
        metrics["trace.overhead_ms"] = (traced["host_op_p50_ms"]
                                        - plain["host_op_p50_ms"])
        metrics["host.kernel_ms"] = probe.kernel_s * 1e3
        units = {k: u for k, (u, _) in PER_LAYER.items()}

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"setup = {wl.setup_note}, {SETUP_REPS} runs: "
          + ", ".join(f"{s:.3f}" for s in setup_runs) + " s")
    print(f"host: {plain['host_ops']} ops, tail = p{plain['host_tail_pct']:.1f}; "
          f"sim: first {plain['sim_ops']} ops, tail = "
          f"p{plain['sim_tail_pct']:.1f}; failed_ops_frac = "
          f"{failed / attempted:.6g}")
    scale = probe.reference_s / probe.kernel_s
    print(f"host speed: {probe.kind} kernel {probe.kernel_s * 1e3:.3f} ms "
          f"(median of {len(probe.samples)}), scale {scale:.4f} to the "
          f"{probe.reference_s * 1e3:g} ms reference; wall op p50 = "
          f"{plain['host_op_p50_ms']:.6g} ms, tail = "
          f"{plain['host_op_tail_ms']:.6g} ms")
    for name in units:
        print(f"  {name:40s} {metrics[name]:>16.6g} {units[name]}")
    for err in errors[:20]:
        print(f"ERROR: {err}")

    stem = f"{wl.name}-seed{args.seed}"
    if tracer is not None:
        spans_path = OUT / f"{stem}.spans.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to "
              f"{os.path.relpath(spans_path, ROOT)}")
    fp = fingerprint()
    payload = {
        "fingerprint": fp,
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_runs_s": setup_runs,
        "setup_scaled_s": setup_scaled,
        "speed_kernel": probe.kind,
        "speed_kernel_s": probe.samples,
        "speed_scale": scale,
        "wall_op_p50_ms": plain["host_op_p50_ms"],
        "wall_op_tail_ms": plain["host_op_tail_ms"],
        "wall_ops_per_s": plain["host_ops_per_s"],
        "host_ops": plain["host_ops"],
        "host_tail_percentile": plain["host_tail_pct"],
        "sim_ops": plain["sim_ops"],
        "sim_tail_percentile": plain["sim_tail_pct"],
        "sim_counts": plain["counts"],
        "failed_ops_frac": failed / attempted,
        "errors": errors[:100],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    path = OUT / f"{stem}-trace{args.trace}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if wl.name.startswith("bfs-") and tracer is None:
        line = region2_ratio(args.seed, fp)
        if line:
            print(line)

    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": payload["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
