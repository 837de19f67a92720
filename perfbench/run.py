"""blindcrb benchmark: one workload per process, driven through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from src/. The BLAS
thread count is pinned through the environment before numpy is imported.

--trace 0 repeats the workload's plan until S seconds have passed (always
at least one whole plan) and reports the end-to-end metrics: setup_s (the
median of several fresh-process set-ups), trials_per_s, peak_rss_mb and
pass_frac. --trace 1 runs the plan untraced for S/2 seconds, then as many
times again with spans recorded around each layer's public functions, and
reports the per-layer metrics and the tracing overhead; the traced CSV must
match the untraced CSV byte for byte.

Outside the timed region every run checks its outputs (see workloads.gate),
runs the one-channel version of the plan at the default seed against the
stored reference, and compares crb_direct with crb_fast on one instance.
The last line of standard output is the result as one JSON object; an
"environment" line before it records numpy, BLAS, threads and the machine.
Spans, CSVs and a full result file go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread: on a shared two-core machine a second thread made the
# run-to-run spread of trials_per_s wider (10-13% against 7-11% over five
# seeds) for a 15-20% higher median.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


def pin_environment() -> int:
    """Pin BLAS threads and put src/ on the import path; before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    return BLAS_THREADS


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment(seed: int, threads: int) -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        deps = {}

    def lib(kind):
        info = deps.get(kind, {})
        return f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()

    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        if _read(str(index / "type")).strip() in ("Unified", "Data"):
            caches[f"l{level}_cache"] = _read(str(index / "size")).strip()
    return {
        "numpy": numpy.__version__,
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_cache": caches.get("l2_cache", "unknown"),
        "l3_cache": caches.get("l3_cache", "unknown"),
        "python": platform.python_version(),
        "seed": seed,
    }


def measure_setup(name: str, seed: int, out_dir: Path, probes: int) -> float:
    """Median set-up seconds over fresh interpreter processes."""
    samples = []
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed),
             str(out_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def timed_pass(runner, seconds: float | None, repeats: int | None = None):
    """Run the plan whole, until `seconds` have passed or `repeats` times.

    Returns (outputs, elapsed seconds); an output is the CSV text or None
    for a plan that failed.
    """
    import workloads

    outputs = []
    start = perf_counter()
    while True:
        try:
            outputs.append(runner.run_once())
        except workloads.PlanFailed:
            outputs.append(None)
        elapsed = perf_counter() - start
        if (len(outputs) >= repeats) if repeats else (elapsed >= seconds):
            return outputs, elapsed


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, traced_outputs, overhead_frac) -> dict:
    import workloads

    layers = tracer.layer_metrics()

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    excluded = sum(c["excluded_trials"] for text in traced_outputs if text
                   for c in workloads.parse_csv(text))
    return {
        "crb_blind.crb_fast.calls": _metric(get("crb_blind.crb_fast", "calls"), "count"),
        "crb_blind.crb_fast.self_s": _metric(get("crb_blind.crb_fast", "self_s"), "s"),
        "crb_blind.crb_fast.ms_p50": _metric(get("crb_blind.crb_fast", "ms_p50"), "ms"),
        "crb_blind.crb_zp_per_block.calls": _metric(get("crb_blind.crb_zp_per_block", "calls"), "count"),
        "crb_blind.crb_zp_per_block.self_s": _metric(get("crb_blind.crb_zp_per_block", "self_s"), "s"),
        "crb_blind.numerical_errors": _metric(tracer.numerical_errors["crb_blind"], "count"),
        "estimator.numerical_errors": _metric(tracer.numerical_errors["estimator"], "count"),
        "model.synthesize_observation.calls": _metric(get("model.synthesize_observation", "calls"), "count"),
        "model.synthesize_observation.self_s": _metric(get("model.synthesize_observation", "self_s"), "s"),
        "model.generate_symbols.self_s": _metric(get("model.generate_symbols", "self_s"), "s"),
        "model.make_precoder.calls": _metric(get("model.make_precoder", "calls"), "count"),
        "estimator.subspace_estimate.calls": _metric(get("estimator.subspace_estimate", "calls"), "count"),
        "estimator.subspace_estimate.self_s": _metric(get("estimator.subspace_estimate", "self_s"), "s"),
        "estimator.resolve_ambiguity.self_s": _metric(get("estimator.resolve_ambiguity", "self_s"), "s"),
        "harness.run_experiment.s": _metric(get("harness.run_experiment", "s"), "s"),
        "harness.self_s": _metric(get("harness.run_experiment", "self_s"), "s"),
        "harness.draw_channel.self_s": _metric(get("harness.draw_channel", "self_s"), "s"),
        "harness.excluded_trials": _metric(excluded, "count"),
        "cli.main.self_s": _metric(get("cli.main", "self_s"), "s"),
        "trace.overhead_frac": _metric(overhead_frac, "frac"),
    }


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path,
            setup_probes: int = SETUP_PROBES, reference=None,
            tiny_reference=None) -> dict:
    """Run one workload and check it; returns the result with its details.

    reference and tiny_reference are the stored cells for this workload's
    full and one-channel plans at the default seed (None skips the check).
    """
    import workloads
    from spans import Tracer

    out_dir.mkdir(parents=True, exist_ok=True)
    runner = workloads.Runner(workload, seed, out_dir)
    stem = f"{workload.name}-{seed}-trace{int(trace)}"
    problems = []
    metrics = {}
    if not trace:
        metrics["setup_s"] = _metric(
            measure_setup(workload.name, seed, out_dir, setup_probes), "s")

    # The one-channel plan at the default seed also warms lazy set-up
    # before the timed pass.
    if tiny_reference is not None:
        tiny = workload.tiny()
        try:
            tiny_csv = workloads.Runner(tiny, workloads.DEFAULT_SEED, out_dir).run_once()
            problems += workloads.gate(tiny, workloads.DEFAULT_SEED, tiny_csv,
                                       tiny_reference)["problems"]
        except workloads.PlanFailed as err:
            problems.append(f"one-channel reference plan failed: {err}")

    outputs, elapsed = timed_pass(runner, seconds / 2 if trace else seconds)
    all_outputs = list(outputs)
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_elapsed = timed_pass(runner, None, repeats=len(outputs))
        finally:
            tracer.restore()
        tracer.write(out_dir / f"{stem}-spans.jsonl")
        if traced != outputs:
            problems.append("traced CSV differs from the untraced CSV")
        all_outputs += traced
        metrics.update(layer_metrics(tracer, traced, traced_elapsed / elapsed - 1.0))
    else:
        metrics["trials_per_s"] = _metric(
            workload.evaluations * len(outputs) / elapsed, "1/s")
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    # The remaining checks, outside the timed region.
    if len({text for text in all_outputs if text is not None}) > 1:
        problems.append("plan CSV differs between repetitions")
    attempted = workload.evaluations * len(all_outputs)
    failed = 0
    gated = {}
    for text in all_outputs:
        if text is None:
            problems.append("plan raised a numerical failure")
            failed += workload.evaluations
            continue
        if text not in gated:
            gated[text] = workloads.gate(workload, seed, text, reference)
            problems += gated[text]["problems"]
        failed += gated[text]["failed"]
    route_problems, notes = workloads.direct_vs_fast(workload, seed)
    problems += route_problems
    if not trace:
        metrics["pass_frac"] = _metric(1.0 - failed / attempted, "frac")
    if outputs[0] is not None:
        (out_dir / f"{stem}.csv").write_text(outputs[0])
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blindcrb" / "__init__.py").is_file():
        print(f"error: the blindcrb package is not under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    threads = pin_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    result = measure(
        workload, args.seed, args.seconds, bool(args.trace), OUT_DIR,
        reference=workloads.load_reference("full")[workload.name],
        tiny_reference=workloads.load_reference("tiny")[workload.name],
    )
    env = environment(args.seed, threads)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for note in result["notes"]:
        print(f"note: {note}", file=sys.stderr)
    record = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    stem = f"{workload.name}-{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}-result.json").write_text(json.dumps(
        {**record, "workload": workload.name, "environment": env,
         "problems": result["problems"], "notes": result["notes"]}, indent=2) + "\n")
    print("environment " + json.dumps(env))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
