"""Smoke test of the benchmark itself, on tiny graphs.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _p in (str(ROOT / "src"), str(HERE)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _region2_capacity(scale: int, edge_factor: int) -> int:
    """A device capacity between the tiny graph's EFG and CSR footprints."""
    from repro import core, datasets, formats, traversal

    graph = datasets.rmat_graph(scale, edge_factor, seed=workloads.GRAPH_SEED)
    big = workloads.DEVICE.scaled_capacity(1 << 40)
    efg = traversal.EFGBackend(core.efg_encode(graph), big)
    csr = traversal.CSRBackend(formats.CSRGraph.from_graph(graph), big)
    return (efg.engine.memory.device_bytes_used()
            + csr.engine.memory.device_bytes_used()) // 2


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and send results to a temporary directory."""
    capacity = _region2_capacity(10, 8)
    for wl in workloads.WORKLOADS.values():
        monkeypatch.setattr(wl, "sim_batches", 12)
        monkeypatch.setattr(wl, "edge_factor", 8)
        monkeypatch.setattr(wl, "scale", 9)
        if isinstance(wl, workloads.BFSRegion2):
            monkeypatch.setattr(wl, "scale", 10)
            monkeypatch.setattr(
                wl, "device", workloads.DEVICE.scaled_capacity(capacity))
    serve_wl = workloads.WORKLOADS["serve-efg-hot"]
    monkeypatch.setattr(serve_wl, "sim_batches", 1)
    monkeypatch.setattr(serve_wl, "queries", 48)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def _run(*args: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(args)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _names(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_metric_names_match_benchmark_json(tiny, name):
    assert name in {w["name"] for w in BENCHMARK["workloads"]}
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        result = _run("--workload", name, "--seed", "5",
                      "--seconds", "0", "--trace", trace)
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _names(kind)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_an_op_that_raises_is_a_failed_op(tiny, monkeypatch, trace):
    wl = workloads.WORKLOADS["dist-bfs-2x4"]
    run_op = wl.run

    def flaky(st, i, pause=None):
        if i == 3:
            raise RuntimeError("injected")
        return run_op(st, i, pause)

    monkeypatch.setattr(wl, "run", flaky)
    result = _run("--workload", wl.name, "--seed", "5",
                  "--seconds", "0", "--trace", trace)
    assert not result["correct"]
    # Counted once, in the pass that raised; the traced pass stops
    # before the op it never ran.
    assert result["failed"] == 1 and result["attempted"] > result["failed"]


def test_region2_ratio_needs_results_of_the_same_code(tiny):
    fp = run.fingerprint()
    for fmt, gteps in (("efg", 9.0), ("csr", 1.5)):
        (tiny / f"bfs-{fmt}-region2-seed7-trace0.json").write_text(json.dumps({
            "fingerprint": fp,
            "metrics": {"sim_gteps": {"value": gteps, "unit": "GTEPS"}},
        }))
    assert "6.00x" in run.region2_ratio(7, fp)
    other = dict(fp, source_sha256="0" * 64)
    assert run.region2_ratio(7, other) is None


def test_tail_counts_ops_that_complete_together_once():
    assert run.tail(list(range(100))) == (89, 90.0)
    # Twenty waves of 16 queries; each wave's queries share a latency.
    waves = [i // 16 for i in range(320)]
    assert run.tail([float(w) for w in waves], waves) == (9.0, 50.0)


def test_seed_is_honoured(tiny):
    """The same seed gives the same inputs and sim metrics; another
    seed gives other inputs."""
    wl = workloads.WORKLOADS["bfs-efg-region2"]
    a = wl.setup(1, str(tiny))["sources"]
    b = wl.setup(1, str(tiny))["sources"]
    c = wl.setup(2, str(tiny))["sources"]
    assert (a == b).all() and not (a == c).all()

    def sim(seed):
        metrics = _run("--workload", "bfs-efg-region2", "--seed", str(seed),
                       "--seconds", "0", "--trace", "0")["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if k.startswith("sim_")}

    assert sim(1) == sim(1)
    assert sim(1) != sim(2)


def _bindings() -> dict:
    """Identity of every callable attribute of the loaded ``repro``
    modules and of every attribute of the traced classes."""
    out = {}
    for mod in tracing._repro_modules():
        for key, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, key)] = id(value)
    classes = [(m, c) for _, m, c, _ in tracing.METHOD_TARGETS]
    classes.append(("repro.serve.telemetry", "ServiceTelemetry"))
    for module, cls_name in classes:
        cls = getattr(importlib.import_module(module), cls_name)
        for key, value in vars(cls).items():
            out[(f"{module}.{cls_name}", key)] = id(value)
    return out


def test_wrappers_restore_every_binding():
    import repro.dist  # noqa: F401  (load every traced module first)
    import repro.serve  # noqa: F401

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        import repro.core.efg
        import repro.traversal.backends

        assert repro.core.efg.extract_fields.perfbench_traced
        assert repro.traversal.backends.decode_lists.perfbench_traced
        assert sum(before[k] != during[k] for k in before) > 20
    finally:
        tracer.uninstall()
    assert _bindings() == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_sim_metrics_identical_traced_and_untraced(tiny, name):
    wl = workloads.WORKLOADS[name]
    st = wl.setup(3, str(tiny))
    wl.warmup(st)
    tracer = tracing.Tracer()
    plain, traced = run.measure(wl, st, 0.0, tracer)
    assert tracer.spans
    plain, traced = run.summarize(wl, plain), run.summarize(wl, traced)
    assert run.compare_passes(plain, traced) == []
    assert plain["counts"]["gpusim.launches"] > 0
