"""Command-line front end.

Three subcommands:

* run       -- execute a Monte Carlo experiment plan and write the CSV
* crb       -- evaluate the fast bound once for a fully specified instance
* selftest  -- internal consistency checks (two-path equality, gradients)

run and crb read a flat configuration file of "key = value" lines
(--config); blank lines and "#" comments are ignored. --override
key=value (repeatable) takes precedence over the file. Exit codes: 0
success, 1 any ValueError, which by errors.py's convention is a bad
argument: a usage or configuration error, an unreadable --config or an
unwritable --out included; 2 numerical failure, 3 selftest failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
import numpy as np

from .crb_blind import crb_direct, crb_fast, default_anchor, fim_blocks
from .errors import NumericalError
from .harness import ExperimentPlan, draw_channel, format_csv, run_experiment, write_csv
from .model import (
    SystemConfig,
    _anchor_mask,
    _require_positive_sigma2,
    _usable,
    build_K,
    generate_symbols,
    loglik_gradients,
    make_precoder,
    synthesize_observation,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_SELFTEST = 3


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route usage problems to exit code 1 instead.
    def error(self, message):
        raise ValueError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


def _parse_complex_list(text: str) -> tuple:
    return tuple(complex(tok.strip()) for tok in text.split(","))


_PARSERS = {
    "M": int,
    "L": int,
    "N": int,
    "sigma2": float,
    "redundancy_kind": str,
    "inner_kind": str,
    "snr_db_grid": _parse_float_list,
    "n_channels": int,
    "n_trials": int,
    "master_seed": int,
    "window_blocks": int,
    "compute_zp_reference": _parse_bool,
    "h": _parse_complex_list,
    "s_n": _parse_complex_list,
    "d": int,
    "seed": int,
}


def _text(value) -> str:
    """The canonical text of a parsed value, which its key's parser reads
    back to the same value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_text(v) for v in value)
    if isinstance(value, complex):
        return repr(value).strip("()")
    return repr(value) if isinstance(value, float) else str(value)


# run takes no sigma2: the harness sets it per cell from the SNR grid.
_FRAME_KEYS = ("M", "L", "N", "redundancy_kind", "inner_kind")

# N = 25 gives the default window_blocks = 2 enough windows,
# N - w + 1 >= w M, for a well-defined noise subspace.
_RUN_DEFAULTS = {
    "M": 12,
    "L": 4,
    "N": 25,
    "redundancy_kind": "cp",
    "inner_kind": "identity",
    "snr_db_grid": (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
    "n_channels": 20,
    "n_trials": 5,
    "master_seed": 0,
    "window_blocks": 2,
    "compute_zp_reference": False,
}

_RUN_KEYS = tuple(_RUN_DEFAULTS)

_CRB_KEYS = _FRAME_KEYS + ("sigma2", "h", "s_n", "d", "seed")

_CRB_DEFAULTS = {
    **{k: _RUN_DEFAULTS[k] for k in _FRAME_KEYS}, "sigma2": 1.0, "seed": 0,
}


def _collect(args, allowed, defaults, seed_key) -> dict:
    """Defaults, then the --config file, then each --override in order,
    then --seed as the value of seed_key: each "key = value" entry is
    parsed in that order, and where it came from labels its errors."""
    entries = []
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as err:
            raise ValueError(f"cannot read config: {err}") from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                entries.append((f"line {lineno}", line))
    entries += [("override", item) for item in args.override or ()]
    if args.seed is not None:
        entries.append(("--seed", f"{seed_key} = {args.seed}"))
    values = dict(defaults)
    for where, text in entries:
        if "=" not in text:
            raise ValueError(f"{where}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in allowed:
            raise ValueError(f"{where}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](value.strip())
        except ValueError as err:
            raise ValueError(f"{where}: bad value for {key}: {err}") from None
    return values


def _dump_config(values: dict, keys) -> str:
    return "".join(f"{key} = {_text(values[key])}\n" for key in keys if key in values)


def _config_from_values(values: dict) -> SystemConfig:
    return SystemConfig(**{k: values[k] for k in _FRAME_KEYS})


def _plan_from_values(values: dict) -> ExperimentPlan:
    # run's keys are the frame's fields and the plan's
    return ExperimentPlan(
        config=_config_from_values(values),
        **{k: values[k] for k in _RUN_KEYS if k not in _FRAME_KEYS},
    )


def _cmd_run(args) -> int:
    values = _collect(args, _RUN_KEYS, _RUN_DEFAULTS, "master_seed")
    plan = _plan_from_values(values)  # validate before dumping
    if args.dump_config:
        sys.stdout.write(_dump_config(values, _RUN_KEYS))
        return EXIT_OK
    out = None if args.out is None else Path(args.out)
    # A path that cannot be a file is refused before the plan runs.
    if out is not None and (out.is_dir() or not out.parent.is_dir()):
        raise ValueError(f"cannot write output {out}: not a file in an existing directory")
    records = run_experiment(plan)
    if args.out is not None:
        try:
            write_csv(records, args.out)
        except OSError as err:
            raise ValueError(f"cannot write output: {err}") from None
    else:
        sys.stdout.write(format_csv(records))
    return EXIT_OK


def _cmd_crb(args) -> int:
    values = _collect(args, _CRB_KEYS, _CRB_DEFAULTS, "seed")
    if "h" not in values:
        raise ValueError("the crb command needs channel taps (key 'h')")
    config = _config_from_values(values)  # validate before dumping
    if values["seed"] < 0:
        raise ValueError(f"seed must be nonnegative, got {values['seed']}")
    for key in ("h", "s_n"):
        if key in values and not _usable(values[key], allow_zero=True)[0]:
            raise ValueError(f"{key} must be finite, got a non-finite entry")
    h = np.asarray(values["h"], dtype=np.complex128)
    if h.size != config.L + 1:
        raise ValueError(f"h must have L+1 = {config.L + 1} taps, got {h.size}")
    if "s_n" in values:
        sN = np.asarray(values["s_n"], dtype=np.complex128)
        if sN.size != config.N * config.M:
            raise ValueError(
                f"s_n must have N*M = {config.N * config.M} entries, got {sN.size}"
            )
    else:
        sN = generate_symbols("qpsk", config.M, config.N, values["seed"]).sN
    d = values["d"] if "d" in values else default_anchor(h)
    _require_positive_sigma2(values["sigma2"])
    _anchor_mask(d, h.size)
    if args.dump_config:
        sys.stdout.write(_dump_config(values, _CRB_KEYS))
        return EXIT_OK
    precoder = make_precoder(config)
    result = crb_fast(h, sN, precoder, d, values["sigma2"], config.N)
    print(f"trace = {result.trace:.12g}")
    with np.printoptions(precision=6, suppress=False, linewidth=120):
        print(result.C)
    return EXIT_OK


def _report(label: str, rel: float, tol: float, failures: list):
    """Print one check's verdict; a failed check joins failures."""
    if rel <= tol:
        print(f"selftest {label}: ok (rel err {rel:.2e})")
    else:
        print(f"selftest {label}: FAIL (rel err {rel:.2e})")
        failures.append(label)


def _selftest_two_path() -> list:
    failures = []
    sigma2 = 0.25
    cases = [
        ("cp", "identity", 4, 2, 4),
        ("zp", "identity", 4, 1, 5),
        ("cp", "idft", 6, 3, 3),
        ("zp", "idft", 5, 2, 3),
    ]
    for idx, (redundancy, inner, M, L, N) in enumerate(cases):
        rng = np.random.default_rng(1000 + idx)
        config = SystemConfig(
            M=M, L=L, N=N, redundancy_kind=redundancy, inner_kind=inner
        )
        precoder = make_precoder(config)
        channel = draw_channel(L, rng)
        h, d = channel.h, channel.d
        sN = generate_symbols("qpsk", M, N, rng).sN
        K, K_list = build_K(config, precoder, h)
        direct = crb_direct(fim_blocks(K, K_list, sN, sigma2), d)
        fast = crb_fast(h, sN, precoder, d, sigma2, config.N)
        rel = np.linalg.norm(fast.C - direct.C) / np.linalg.norm(direct.C)
        _report(f"two-path {redundancy}/{inner} M={M} L={L} N={N}", rel, 1e-8, failures)
    return failures


def _selftest_gradients() -> list:
    failures = []
    rng = np.random.default_rng(7)
    sigma2 = 0.5
    config = SystemConfig(M=4, L=2, N=3)
    precoder = make_precoder(config)
    h = draw_channel(config.L, rng).h
    sN = generate_symbols("qpsk", config.M, config.N, rng).sN
    y = synthesize_observation(precoder, h, sN, 0.02, rng)

    def loglik(taps):
        e = y - synthesize_observation(precoder, taps, sN, 0.0, None)
        return -float(np.real(np.vdot(e, e))) / sigma2

    grad_h, _ = loglik_gradients(y, config, precoder, h, sN, sigma2)
    eps = 1e-6
    worst = 0.0
    for l in range(h.size):
        delta = np.zeros_like(h)
        delta[l] = eps
        d_re = (loglik(h + delta) - loglik(h - delta)) / (2 * eps)
        d_im = (loglik(h + 1j * delta) - loglik(h - 1j * delta)) / (2 * eps)
        fd = (d_re + 1j * d_im) / 2
        worst = max(worst, abs(fd - grad_h[l]) / abs(grad_h[l]))
    _report("gradients", worst, 1e-6, failures)
    return failures


def _cmd_selftest(args) -> int:
    failures = _selftest_two_path() + _selftest_gradients()
    if failures:
        print(f"selftest: {len(failures)} check(s) failed")
        return EXIT_SELFTEST
    print("selftest: all checks passed")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="blindcrb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument(
            "--override",
            action="append",
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
        p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument(
            "--dump-config",
            action="store_true",
            help="print the effective configuration and exit",
        )

    p_run = sub.add_parser("run", help="run a Monte Carlo experiment")
    add_config_flags(p_run)
    p_run.add_argument("--out", help="CSV output file path (default stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_crb = sub.add_parser("crb", help="evaluate the bound for one instance")
    add_config_flags(p_crb)
    p_crb.set_defaults(func=_cmd_crb)

    p_self = sub.add_parser("selftest", help="run internal consistency checks")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help exits 0
        return EXIT_OK if (exc.code or 0) == 0 else EXIT_USAGE
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
