"""Tests of the benchmark itself, on one-channel versions of the workloads.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.pin_environment()

import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
TINY_REFERENCE = workloads.load_reference("tiny")


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    """CSV of each one-channel plan at the default seed, computed once."""
    out = tmp_path_factory.mktemp("tiny")
    cache = {}

    def get(name):
        if name not in cache:
            tiny = workloads.WORKLOADS[name].tiny()
            cache[name] = workloads.Runner(tiny, workloads.DEFAULT_SEED, out).run_once()
        return cache[name]

    return get


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_end_to_end(name, trace, tmp_path):
    tiny = workloads.WORKLOADS[name].tiny()
    result = run.measure(tiny, workloads.DEFAULT_SEED, 0.01, trace, tmp_path,
                         setup_probes=1, reference=TINY_REFERENCE[name])
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0
    passes = 2 if trace else 1
    assert result["attempted"] == passes * tiny.evaluations
    metrics = result["metrics"]
    assert set(metrics) == (PER_LAYER if trace else END_TO_END)
    if trace:
        assert metrics["crb_blind.crb_fast.calls"]["value"] == tiny.evaluations
        zp_calls = tiny.evaluations if tiny.compute_zp_reference else 0
        assert metrics["crb_blind.crb_zp_per_block.calls"]["value"] == zp_calls
        assert (tmp_path / f"{name}-0-trace1-spans.jsonl").stat().st_size > 0
    else:
        assert metrics["pass_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_gate_passes_on_reference_and_fails_on_perturbed_crb(name, tiny_csv):
    tiny = workloads.WORKLOADS[name].tiny()
    text = tiny_csv(name)
    reference = TINY_REFERENCE[name]
    assert workloads.gate(tiny, workloads.DEFAULT_SEED, text, reference) == {
        "failed": 0, "problems": []}
    perturbed = copy.deepcopy(reference)
    perturbed[0]["crb_avg"] *= 1 + 1e-6
    verdict = workloads.gate(tiny, workloads.DEFAULT_SEED, text, perturbed)
    assert verdict["failed"] == tiny.trials_per_cell
    assert len(verdict["problems"]) == 1 and "crb_avg" in verdict["problems"][0]
    # The reference applies at the default seed only.
    assert workloads.gate(tiny, workloads.DEFAULT_SEED + 1, text, perturbed)["failed"] == 0


def test_invariants_flag_a_cell_off_the_sigma2_scaling(tiny_csv):
    cells = workloads.parse_csv(tiny_csv("snr_sweep"))
    assert workloads.check_invariants(cells) == {}
    cells[2]["crb_avg"] *= 1 + 1e-6
    assert list(workloads.check_invariants(cells)) == [2]


def test_invariants_require_zp_reference_below_frame_bound(tiny_csv):
    cells = workloads.parse_csv(tiny_csv("zp_reference"))
    assert workloads.check_invariants(cells) == {}
    cells[1]["crb_zp_ref_avg"] = cells[1]["crb_avg"]
    assert list(workloads.check_invariants(cells)) == [1]


def test_seed_is_honoured(tmp_path, tiny_csv):
    tiny = workloads.WORKLOADS["snr_sweep"].tiny()
    seed = workloads.DEFAULT_SEED + 7
    runner = workloads.Runner(tiny, seed, tmp_path)
    assert f"master_seed = {seed}\n" in runner.config_path.read_text()
    text = runner.run_once()
    assert text == workloads.Runner(tiny, seed, tmp_path).run_once()
    assert text != tiny_csv("snr_sweep")
    assert all(line.split(",")[7] == str(seed) for line in text.splitlines()[1:])


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snr_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
