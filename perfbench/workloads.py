"""Workload definitions, the plan runner and the correctness gate.

Every workload uses M=12, L=4 and QPSK, and differs in what it stresses:

* snr_sweep: CP with IDFT inner precoder, N=25, 7 SNR points sharing every
  channel, frame and K; runs through ``blindcrb.cli.main`` like a user of
  the ``blindcrb run`` command. Work that does not depend on SNR shows here.
* long_frame: CP with identity precoder, N=100, one SNR point; the O(N^3)
  dense bound dominates and nothing is shared across SNR.
* zp_reference: ZP with identity precoder, N=25, three SNR points, with the
  per-block reference bound; exercises crb_zp_per_block. N stays at 25 or
  more because at N <= 16 the estimator's mse_avg sits near 1 at every SNR,
  which would make a reference check on it unstable.

Importing this module imports blindcrb (and numpy), so the BLAS thread
count must be pinned in the environment first.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import blindcrb
from blindcrb import cli, harness

DEFAULT_SEED = 0
M, L = 12, 4

# Reference tolerances, relative. crb_avg is held to the level at which the
# two independent bound routes agree; mse_avg goes through an
# eigendecomposition, so rounding changes upstream move it more.
CRB_RTOL = 1e-8
ZP_REF_RTOL = 1e-8
MSE_RTOL = 1e-6
# crb_avg * 10^(snr/10) is sigma2-free, so it must agree across a plan's cells.
SCALING_RTOL = 1e-9
DIRECT_FAST_RTOL = 1e-8

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    N: int
    redundancy_kind: str
    inner_kind: str
    snr_db_grid: tuple
    n_channels: int
    n_trials: int
    compute_zp_reference: bool = False
    via_cli: bool = False

    @property
    def trials_per_cell(self) -> int:
        return self.n_channels * self.n_trials

    @property
    def evaluations(self) -> int:
        """Trial evaluations per plan: one per (channel, trial, SNR)."""
        return len(self.snr_db_grid) * self.trials_per_cell

    def tiny(self) -> "Workload":
        """The same plan with the fewest channels and trials that still
        cover every cell; used by the always-on reference check and tests."""
        return replace(self, n_channels=1, n_trials=1)

    def plan(self, seed: int) -> blindcrb.ExperimentPlan:
        config = blindcrb.SystemConfig(
            M=M, L=L, N=self.N, sigma2=1.0,
            redundancy_kind=self.redundancy_kind, inner_kind=self.inner_kind,
        )
        return blindcrb.ExperimentPlan(
            config=config,
            snr_db_grid=self.snr_db_grid,
            n_channels=self.n_channels,
            n_trials=self.n_trials,
            master_seed=seed,
            compute_zp_reference=self.compute_zp_reference,
        )

    def config_text(self, seed: int) -> str:
        """The plan as a ``blindcrb run`` configuration file."""
        grid = ", ".join(repr(float(v)) for v in self.snr_db_grid)
        return (
            f"M = {M}\nL = {L}\nN = {self.N}\n"
            f"redundancy_kind = {self.redundancy_kind}\n"
            f"inner_kind = {self.inner_kind}\n"
            f"snr_db_grid = {grid}\n"
            f"n_channels = {self.n_channels}\nn_trials = {self.n_trials}\n"
            f"master_seed = {seed}\n"
            f"compute_zp_reference = {'true' if self.compute_zp_reference else 'false'}\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("snr_sweep", 25, "cp", "idft",
                 (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0), 10, 5,
                 via_cli=True),
        Workload("long_frame", 100, "cp", "identity", (20.0,), 4, 3),
        Workload("zp_reference", 25, "zp", "identity", (10.0, 20.0, 30.0),
                 10, 5, compute_zp_reference=True),
    )
}


class PlanFailed(Exception):
    """A plan raised a numerical failure or the CLI returned nonzero."""


class Runner:
    """Set-up state for one workload and seed: the plan, its precoder and,
    for CLI workloads, the parsed configuration file.

    Public names are looked up on their modules at call time, so wrappers
    installed by the tracer take effect.
    """

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.plan = workload.plan(seed)
        self.precoder = blindcrb.make_precoder(self.plan.config)
        stem = f"{workload.name}-{workload.n_channels}x{workload.n_trials}-{seed}"
        self.config_path = work_dir / f"{stem}.conf"
        self.csv_path = work_dir / f"{stem}.csv"
        if workload.via_cli:
            if not self.config_path.is_file():
                self.config_path.write_text(workload.config_text(seed))
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", "--config", str(self.config_path),
                                 "--dump-config"])
            if code != cli.EXIT_OK:
                raise RuntimeError(f"configuration rejected (exit {code})")

    def run_once(self) -> str:
        """Run the whole plan and return its CSV text."""
        if self.workload.via_cli:
            code = cli.main(["run", "--config", str(self.config_path),
                             "--out", str(self.csv_path)])
            if code != cli.EXIT_OK:
                raise PlanFailed(f"blindcrb run exited with {code}")
            return self.csv_path.read_text()
        try:
            records = harness.run_experiment(self.plan)
        except blindcrb.NumericalError as err:
            raise PlanFailed(str(err)) from None
        return harness.format_csv(records)


def parse_csv(text: str) -> list:
    """Cells of a plan's CSV as dicts of the gated columns."""
    lines = text.splitlines()
    if not lines or lines[0] != blindcrb.CSV_HEADER:
        raise ValueError("CSV header does not match blindcrb.CSV_HEADER")
    cells = []
    for line in lines[1:]:
        f = line.split(",")
        cells.append({
            "snr_db": float(f[0]),
            "crb_avg": float(f[1]),
            "mse_avg": float(f[2]),
            "crb_zp_ref_avg": float(f[3]) if f[3] else None,
            "excluded_trials": int(f[8]),
        })
    return cells


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_reference(cells: list, reference: list) -> dict:
    """Compare cells with reference cells; map cell index -> problems."""
    problems = {}
    if len(cells) != len(reference):
        return {i: ["cell count differs from reference"] for i in range(len(cells))}
    for i, (got, want) in enumerate(zip(cells, reference)):
        bad = []
        if got["snr_db"] != want["snr_db"]:
            bad.append(f"snr_db {got['snr_db']} != {want['snr_db']}")
        if got["excluded_trials"] != want["excluded_trials"]:
            bad.append(f"excluded_trials {got['excluded_trials']} != "
                       f"{want['excluded_trials']}")
        if _rel(got["crb_avg"], want["crb_avg"]) > CRB_RTOL:
            bad.append(f"crb_avg {got['crb_avg']!r} vs {want['crb_avg']!r}")
        if _rel(got["mse_avg"], want["mse_avg"]) > MSE_RTOL:
            bad.append(f"mse_avg {got['mse_avg']!r} vs {want['mse_avg']!r}")
        if (got["crb_zp_ref_avg"] is None) != (want["crb_zp_ref_avg"] is None) or (
            want["crb_zp_ref_avg"] is not None
            and _rel(got["crb_zp_ref_avg"], want["crb_zp_ref_avg"]) > ZP_REF_RTOL
        ):
            bad.append(f"crb_zp_ref_avg {got['crb_zp_ref_avg']!r} vs "
                       f"{want['crb_zp_ref_avg']!r}")
        if bad:
            problems[i] = bad
    return problems


def check_invariants(cells: list) -> dict:
    """Seed-independent checks; map cell index -> problems."""
    problems = {}
    scaled = [c["crb_avg"] * 10.0 ** (c["snr_db"] / 10.0) for c in cells]
    middle = statistics.median(scaled)
    for i, (cell, s) in enumerate(zip(cells, scaled)):
        bad = []
        if _rel(s, middle) > SCALING_RTOL:
            bad.append(f"crb_avg*10^(snr/10) = {s!r} differs from the plan's "
                       f"median {middle!r}")
        zp = cell["crb_zp_ref_avg"]
        if zp is not None and not zp < cell["crb_avg"]:
            bad.append(f"crb_zp_ref_avg {zp!r} not below crb_avg {cell['crb_avg']!r}")
        if bad:
            problems[i] = bad
    return problems


def load_reference(kind: str) -> dict:
    """Reference cells at DEFAULT_SEED by workload; kind is "full" or "tiny"."""
    data = json.loads(REFERENCE_FILE.read_text())
    return {name: entry[kind] for name, entry in data["workloads"].items()}


def gate(workload: Workload, seed: int, csv_text: str, reference=None) -> dict:
    """Correctness gate for one plan's CSV.

    Returns {"failed": trial evaluations counted as failed, "problems":
    list of messages}. A cell that breaks a check fails all its trials;
    otherwise its excluded trials fail. reference (a list of cells) is
    compared only at DEFAULT_SEED.
    """
    cells = parse_csv(csv_text)
    problems = check_invariants(cells)
    if reference is not None and seed == DEFAULT_SEED:
        for i, bad in check_reference(cells, reference).items():
            problems.setdefault(i, []).extend(bad)
    if len(cells) != len(workload.snr_db_grid):
        problems.setdefault(-1, []).append(
            f"{len(cells)} cells, expected {len(workload.snr_db_grid)}")
    failed = sum(
        workload.trials_per_cell if i in problems else c["excluded_trials"]
        for i, c in enumerate(cells)
    )
    messages = [f"{workload.name} cell {i}: {m}"
                for i, bad in sorted(problems.items()) for m in bad]
    return {"failed": failed, "problems": messages}


def direct_vs_fast(workload: Workload, seed: int) -> tuple:
    """Check the two bound routes against each other on the plan's first
    trial (channel 0, trial 0, first SNR point), drawn with the harness's
    documented seed streams.

    Returns (problems, notes), lists of messages. The routes must agree
    within DIRECT_FAST_RTOL where both accept, and crb_fast must not reject
    what crb_direct accepts. When only crb_direct rejects, the reference
    route cannot vouch for the value: the routes gating on different things
    is a known defect of the package, so it is noted, not gated.
    """
    config = replace(workload.plan(seed).config,
                     sigma2=harness.sigma2_from_snr_db(workload.snr_db_grid[0]))
    precoder = blindcrb.make_precoder(config)

    def stream(*indices):
        return np.random.default_rng(np.random.SeedSequence([seed, *indices]))

    channel = blindcrb.draw_channel(config.L, stream(0, 0))
    frame = blindcrb.generate_symbols("qpsk", config.M, config.N, stream(1, 0, 0))
    results, errors = {}, {}
    try:
        K, K_list = blindcrb.build_K(config, precoder, channel.h)
        results["direct"] = blindcrb.crb_direct(
            blindcrb.fim_blocks(K, K_list, frame.sN, config.sigma2), channel.d).C
    except blindcrb.NumericalError as err:
        errors["direct"] = f"{type(err).__name__}: {err}"
    try:
        results["fast"] = blindcrb.crb_fast(channel.h, frame.sN, precoder,
                                            channel.d, config.sigma2, config.N).C
    except blindcrb.NumericalError as err:
        errors["fast"] = f"{type(err).__name__}: {err}"
    if len(results) == 2:
        rel = float(np.linalg.norm(results["fast"] - results["direct"])
                    / np.linalg.norm(results["direct"]))
        message = f"crb_direct and crb_fast differ by {rel:.3e} relative"
        return ([message], []) if not rel <= DIRECT_FAST_RTOL else ([], [message])
    if "fast" in results:
        return [], [f"crb_direct rejects an instance crb_fast accepts: {errors['direct']}"]
    if "direct" in results:
        return [f"crb_fast rejects an instance crb_direct accepts: {errors['fast']}"], []
    return [], ["both routes reject the instance"]
