"""Command-line front end.

Three subcommands:

* run       -- execute a Monte Carlo experiment plan and write the CSV
* crb       -- evaluate the fast bound once for a fully specified instance
* selftest  -- internal consistency checks (two-path equality, gradients)

run and crb read a flat configuration file of "key = value" lines
(--config); blank lines and "#" comments are ignored. --override
key=value (repeatable) takes precedence over the file. Exit codes: 0
success, 1 usage or configuration error, 2 numerical failure, 3 selftest
failure.
"""

from __future__ import annotations

import argparse
import math
import sys
import numpy as np

from .crb_blind import crb_direct, crb_fast, default_anchor, fim_blocks
from .errors import NumericalError
from .estimator import EstimatorSettings
from .harness import ExperimentPlan, format_csv, run_experiment, write_csv
from .model import (
    SystemConfig,
    build_K,
    generate_symbols,
    loglik_gradients,
    make_precoder,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_SELFTEST = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2); route usage problems to exit code 1 instead.
    def error(self, message):
        raise _UsageError(message)


# key -> (parser, canonical formatter)
def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


def _parse_complex_list(text: str) -> tuple:
    return tuple(complex(tok.strip()) for tok in text.split(","))


def _fmt_float(v) -> str:
    return repr(float(v))


def _fmt_complex_list(vs) -> str:
    return ", ".join(repr(complex(v)).strip("()") for v in vs)


_KEY_SPECS = {
    "M": (int, str),
    "L": (int, str),
    "N": (int, str),
    "sigma2": (float, _fmt_float),
    "redundancy_kind": (str, str),
    "inner_kind": (str, str),
    "snr_db_grid": (_parse_float_list, lambda vs: ", ".join(_fmt_float(v) for v in vs)),
    "n_channels": (int, str),
    "n_trials": (int, str),
    "master_seed": (int, str),
    "window_blocks": (int, str),
    "compute_zp_reference": (_parse_bool, lambda v: "true" if v else "false"),
    "h": (_parse_complex_list, _fmt_complex_list),
    "s_n": (_parse_complex_list, _fmt_complex_list),
    "d": (int, str),
    "seed": (int, str),
}

# run takes no sigma2: the harness sets it per cell from the SNR grid.
_FRAME_KEYS = ("M", "L", "N", "redundancy_kind", "inner_kind")

_RUN_KEYS = _FRAME_KEYS + (
    "snr_db_grid", "n_channels", "n_trials", "master_seed", "window_blocks",
    "compute_zp_reference",
)

_CRB_KEYS = _FRAME_KEYS + ("sigma2", "h", "s_n", "d", "seed")

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

_CRB_DEFAULTS = {
    **{k: _RUN_DEFAULTS[k] for k in _FRAME_KEYS}, "sigma2": 1.0, "seed": 0,
}


def _parse_entries(entries, allowed, values: dict) -> dict:
    """Parse (where, "key = value") pairs into values; where labels errors."""
    for where, text in entries:
        if "=" not in text:
            raise _UsageError(f"{where}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in allowed:
            raise _UsageError(f"{where}: unknown key {key!r}")
        parse = _KEY_SPECS[key][0]
        try:
            values[key] = parse(value.strip())
        except ValueError as err:
            raise _UsageError(f"{where}: bad value for {key}: {err}") from None
    return values


def _collect(args, allowed, defaults) -> dict:
    """Defaults, then the --config file, then each --override in order."""
    entries = []
    if args.config is not None:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as err:
            raise _UsageError(f"cannot read config: {err}") from None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                entries.append((f"line {lineno}", line))
    entries += [("override", item) for item in args.override or ()]
    return _parse_entries(entries, allowed, dict(defaults))


def _dump_config(values: dict, keys) -> str:
    lines = []
    for key in keys:
        if key not in values:
            continue
        fmt = _KEY_SPECS[key][1]
        lines.append(f"{key} = {fmt(values[key])}")
    return "\n".join(lines) + "\n"


def _config_from_values(values: dict) -> SystemConfig:
    try:
        return SystemConfig(**{k: values[k] for k in _FRAME_KEYS})
    except ValueError as err:
        raise _UsageError(str(err)) from None


def _plan_from_values(values: dict) -> ExperimentPlan:
    config = _config_from_values(values)
    try:
        return ExperimentPlan(
            config=config,
            snr_db_grid=values["snr_db_grid"],
            n_channels=values["n_channels"],
            n_trials=values["n_trials"],
            master_seed=values["master_seed"],
            estimator_settings=EstimatorSettings(values["window_blocks"]),
            compute_zp_reference=values["compute_zp_reference"],
        )
    except ValueError as err:
        raise _UsageError(str(err)) from None


def _cmd_run(args) -> int:
    values = _collect(args, _RUN_KEYS, _RUN_DEFAULTS)
    if args.seed is not None:
        values["master_seed"] = args.seed
    plan = _plan_from_values(values)  # validate before dumping
    if args.dump_config:
        sys.stdout.write(_dump_config(values, _RUN_KEYS))
        return EXIT_OK
    records = run_experiment(plan)
    if args.out is not None:
        write_csv(records, args.out)
    else:
        sys.stdout.write(format_csv(records))
    return EXIT_OK


def _cmd_crb(args) -> int:
    values = _collect(args, _CRB_KEYS, _CRB_DEFAULTS)
    if args.seed is not None:
        values["seed"] = args.seed
    if "h" not in values:
        raise _UsageError("the crb command needs channel taps (key 'h')")
    config = _config_from_values(values)  # validate before dumping
    if not 0 < values["sigma2"] < math.inf:
        raise _UsageError(f"sigma2 must be positive and finite, got {values['sigma2']}")
    for key in ("h", "s_n"):
        if key in values and not np.isfinite(values[key]).all():
            raise _UsageError(f"{key} must be finite, got a non-finite entry")
    h = np.asarray(values["h"], dtype=np.complex128)
    if h.size != config.L + 1:
        raise _UsageError(f"h must have L+1 = {config.L + 1} taps, got {h.size}")
    if "s_n" in values:
        sN = np.asarray(values["s_n"], dtype=np.complex128)
        if sN.size != config.N * config.M:
            raise _UsageError(
                f"s_n must have N*M = {config.N * config.M} entries, got {sN.size}"
            )
    else:
        sN = generate_symbols("qpsk", config.M, config.N, values["seed"]).sN
    d = values.get("d", default_anchor(h))
    if not 0 <= d < h.size:
        raise _UsageError(f"anchor index {d} outside 0..{h.size - 1}")
    if args.dump_config:
        sys.stdout.write(_dump_config(values, _CRB_KEYS))
        return EXIT_OK
    precoder = make_precoder(config)
    result = crb_fast(h, sN, precoder, d, values["sigma2"], config.N)
    print(f"trace = {result.trace:.12g}")
    with np.printoptions(precision=6, suppress=False, linewidth=120):
        print(result.C)
    return EXIT_OK


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
        h = (rng.standard_normal(L + 1) + 1j * rng.standard_normal(L + 1)) / np.sqrt(2)
        h /= np.linalg.norm(h)
        sN = generate_symbols("qpsk", M, N, rng).sN
        d = default_anchor(h)
        K, K_list = build_K(config, precoder, h)
        direct = crb_direct(fim_blocks(K, K_list, sN, sigma2), d)
        fast = crb_fast(h, sN, precoder, d, sigma2, config.N)
        rel = np.linalg.norm(fast.C - direct.C) / np.linalg.norm(direct.C)
        label = f"two-path {redundancy}/{inner} M={M} L={L} N={N}"
        if rel <= 1e-8:
            print(f"selftest {label}: ok (rel err {rel:.2e})")
        else:
            print(f"selftest {label}: FAIL (rel err {rel:.2e})")
            failures.append(label)
    return failures


def _selftest_gradients() -> list:
    failures = []
    rng = np.random.default_rng(7)
    sigma2 = 0.5
    config = SystemConfig(M=4, L=2, N=3)
    precoder = make_precoder(config)
    h = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / np.sqrt(2)
    sN = generate_symbols("qpsk", config.M, config.N, rng).sN
    y = build_K(config, precoder, h)[0] @ sN
    y += 0.1 * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))

    def loglik(taps):
        K, _ = build_K(config, precoder, taps)
        e = y - K @ sN
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
    if worst <= 1e-6:
        print(f"selftest gradients: ok (rel err {worst:.2e})")
    else:
        print(f"selftest gradients: FAIL (rel err {worst:.2e})")
        failures.append("gradients")
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # argparse --help exits 0
        return EXIT_OK if (exc.code or 0) == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
