"""The benchmark's use of the package, checked without running the
benchmark: every name perfbench/spans.py traces must still exist where it
looks for it, each workload's one-channel plan must pass the benchmark's
correctness gate against its stored reference, and tracing a plan must
leave its CSV and, once restored, the package's bindings as they were.

A cleanup that drops a binding the tracer reads, or a change that moves
a gated number, fails here rather than only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", BENCH_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Registered before it runs: its dataclasses look their module up.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize(
    "module,attr", [(m, a) for m, a, _ in spans.TRACED],
    ids=[f"{m.__name__}.{a}" for m, a, _ in spans.TRACED],
)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(module, attr, None))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_plan_passes_gate(name, tmp_path):
    tiny = workloads.WORKLOADS[name].tiny()
    csv = workloads.Runner(tiny, workloads.DEFAULT_SEED, tmp_path).run_once()
    reference = workloads.load_reference("tiny")[name]
    result = workloads.gate(tiny, workloads.DEFAULT_SEED, csv, reference)
    assert result == {"failed": 0, "problems": []}


@pytest.mark.parametrize("name", ["snr_sweep", "zp_reference"])
def test_direct_and_fast_routes_agree(name):
    problems, _ = workloads.direct_vs_fast(
        workloads.WORKLOADS[name], workloads.DEFAULT_SEED
    )
    assert problems == []


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_matches_untraced(name, tmp_path):
    runner = workloads.Runner(
        workloads.WORKLOADS[name].tiny(), workloads.DEFAULT_SEED, tmp_path
    )
    untraced = runner.run_once()
    originals = [getattr(module, attr) for module, attr, _ in spans.TRACED]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = runner.run_once()
    finally:
        tracer.restore()
    assert traced == untraced
    calls = {span: m["calls"] for span, m in tracer.layer_metrics().items()}
    for span in (
        "estimator.subspace_estimate",
        "estimator.resolve_ambiguity",
        "model.synthesize_observation",
    ):
        assert calls.get(span, 0) >= 1, span
    restored = [getattr(module, attr) for module, attr, _ in spans.TRACED]
    assert all(a is b for a, b in zip(restored, originals))
