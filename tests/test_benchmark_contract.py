"""The benchmark's use of the package, checked without running the
benchmark: every name perfbench/spans.py traces must still exist where it
looks for it, each workload's one-channel plan must pass the benchmark's
correctness gate against its stored reference, tracing a plan must
leave its CSV and, once restored, the package's bindings as they were,
and each workload's plan must call the estimator once per chunk of
trials, each D0 function and the stacked inversion once per group of
channels, and synthesize_observation once per trial, with the chunks
and groups ROADMAP item 1 expects.

A cleanup that drops a binding the tracer reads, or a change that moves
a gated number, fails here rather than only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from blindcrb import harness

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


@pytest.mark.parametrize("name,rows", [
    ("snr_sweep", [8, 8, 8, 8, 8, 8, 2]),
    ("long_frame", [12]),
    ("zp_reference", [20, 20, 10]),
], ids=["snr_sweep", "long_frame", "zp_reference"])
def test_estimator_calls_per_plan_pass(name, rows):
    # One stacked estimator call per chunk of trials, as many trials a
    # chunk as the byte budget allows: 50 trials of 7 SNR points at the
    # N=25 border, 12 of one point at N=100, 50 of 3 points at the border.
    calls = []

    def estimate(Y, precoder, settings):
        calls.append(len(Y))
        return harness.subspace_estimate(Y, precoder, settings)

    plan = workloads.WORKLOADS[name].plan(workloads.DEFAULT_SEED)
    harness.run_experiment(plan, estimate_fn=estimate)
    assert calls == rows


@pytest.mark.parametrize("name,fast,zp", [
    ("snr_sweep", [10], []),
    ("long_frame", [4], []),
    ("zp_reference", [10], [10]),
], ids=["snr_sweep", "long_frame", "zp_reference"])
def test_information_calls_per_plan_pass(name, fast, zp, monkeypatch):
    # One stacked call per D0 function per group of channels, and every
    # workload's plan is one group: 10 channels of 5 N=25 frames, 4 of 3
    # N=100 frames. The reference's D0 runs on zp_reference only.
    calls = {"fast": [], "zp": []}

    def counted(key, information):
        def wrapper(hs, sNs, precoder):
            calls[key].append(len(hs))
            return information(hs, sNs, precoder)
        return wrapper

    monkeypatch.setattr(harness, "fast_information", counted("fast", harness.fast_information))
    monkeypatch.setattr(harness, "zp_information", counted("zp", harness.zp_information))
    plan = workloads.WORKLOADS[name].plan(workloads.DEFAULT_SEED)
    harness.run_experiment(plan)
    assert calls == {"fast": fast, "zp": zp}


@pytest.mark.parametrize("name,frames,stacks", [
    ("snr_sweep", 50, [(1, 10, 5)]),
    ("long_frame", 12, [(1, 4, 3)]),
    ("zp_reference", 50, [(2, 10, 5)]),
], ids=["snr_sweep", "long_frame", "zp_reference"])
def test_synthesis_and_inversion_calls_per_plan_pass(name, frames, stacks, monkeypatch):
    # One synthesize_observation call per trial, with every SNR point of
    # it, and one stacked inversion per group of channels: the (bound or
    # bound and reference, channel, trial) stack of each workload's one
    # group.
    synthesize_observation = harness.synthesize_observation
    invert_reduced = harness._invert_reduced
    calls = {"synthesize": 0, "invert": []}

    def synthesize(*args):
        calls["synthesize"] += 1
        return synthesize_observation(*args)

    def invert(D0s, anchors):
        calls["invert"].append(D0s.shape[:3])
        return invert_reduced(D0s, anchors)

    monkeypatch.setattr(harness, "synthesize_observation", synthesize)
    monkeypatch.setattr(harness, "_invert_reduced", invert)
    plan = workloads.WORKLOADS[name].plan(workloads.DEFAULT_SEED)
    harness.run_experiment(plan)
    assert calls == {"synthesize": frames, "invert": stacks}
