"""Acceptance suite.

One test per acceptance criterion, each printing a single
"criterion N (name): PASS/FAIL (detail)" line; run with -s to see the
lines as they complete. The heavyweight ones carry their own wall-clock
budgets (criterion 1 under two minutes, criterion 7 under fifteen).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from blindcrb import (
    EstimatorSettings,
    ExperimentPlan,
    NumericalError,
    SystemConfig,
    build_K,
    crb_direct,
    crb_fast,
    crb_unconstrained,
    default_anchor,
    fim_blocks,
    generate_symbols,
    loglik_gradients,
    make_precoder,
    resolve_ambiguity,
    run_experiment,
    schur_cov_bound,
    subspace_estimate,
    synthesize_observation,
)
from helpers import assembled_fim, left_null_basis, random_psd, run_cell


@contextmanager
def criterion(num: int, name: str):
    """Print exactly one summary line for the criterion, pass or fail."""
    rec = {"detail": ""}
    try:
        yield rec
    except BaseException as exc:
        reason = str(exc).strip().splitlines()[0] if str(exc).strip() else type(exc).__name__
        print(f"criterion {num} ({name}): FAIL ({reason})")
        raise
    print(f"criterion {num} ({name}): PASS ({rec['detail']})")


def unit_channel(L, rng):
    h = rng.standard_normal(L + 1) + 1j * rng.standard_normal(L + 1)
    return h / np.linalg.norm(h)


def test_criterion_1_two_path_equivalence():
    with criterion(1, "two-path equivalence") as rec:
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        combos = [
            (M, L, N, kind, inner)
            for kind in ("cp", "zp")
            for inner in ("identity", "idft")
            for M in (4, 8, 12)
            for L in (1, 2, 4)
            if L < M
            for N in (2, 4, 8)
        ]
        worst = 0.0
        tested = 0
        for M, L, N, kind, inner in combos:
            cfg = SystemConfig(
                M=M, L=L, N=N, sigma2=0.3, redundancy_kind=kind, inner_kind=inner
            )
            pre = make_precoder(cfg)
            for _ in range(50):
                # the direct route squares the conditioning of K through its
                # symbol block, so the 1e-8 agreement check needs a benignly
                # conditioned instance; redraw the channel otherwise
                h = unit_channel(L, rng)
                K, K_list = build_K(cfg, pre, h)
                if np.linalg.cond(K) > 1e4:
                    continue
                s = generate_symbols("qpsk", M, N, rng).sN
                d = default_anchor(h)
                try:
                    direct = crb_direct(fim_blocks(K, K_list, s, cfg.sigma2), d)
                    fast = crb_fast(h, s, pre, d, cfg.sigma2, cfg.N)
                except NumericalError:
                    continue
                rel = np.linalg.norm(fast.C - direct.C) / np.linalg.norm(direct.C)
                assert rel <= 1e-8, (
                    f"routes disagree (rel {rel:.2e}) at {(M, L, N, kind, inner)}"
                )
                worst = max(worst, rel)
                tested += 1
                break
            else:
                raise AssertionError(f"no usable draw for {(M, L, N, kind, inner)}")
        elapsed = time.perf_counter() - start
        assert tested >= 40, f"only {tested} instances compared"
        assert tested == len(combos)
        assert elapsed < 120.0, f"took {elapsed:.0f}s, budget is 120s"
        rec["detail"] = (
            f"{tested} instances over the full grid, worst rel err {worst:.2e}, "
            f"{elapsed:.1f}s"
        )


def test_criterion_2_gradient_oracle():
    with criterion(2, "likelihood gradients vs finite differences") as rec:
        rng = np.random.default_rng(2025)
        eps, sigma2 = 1e-6, 0.5
        worst = 0.0
        for trial in range(10):
            kind = ("cp", "zp")[trial % 2]
            inner = ("identity", "idft")[(trial // 2) % 2]
            M, L, N = [(4, 2, 3), (5, 1, 3), (6, 3, 2)][trial % 3]
            cfg = SystemConfig(M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner)
            pre = make_precoder(cfg)
            h = unit_channel(L, rng)
            s = generate_symbols("qpsk", M, N, rng).sN
            y = synthesize_observation(pre, h, s, sigma2, trial)

            def loglik(taps, frame):
                K, _ = build_K(cfg, pre, taps)
                e = y - K @ frame
                return -float(np.real(np.vdot(e, e))) / sigma2

            grad_h, grad_s = loglik_gradients(y, cfg, pre, h, s, sigma2)
            scale_h = np.max(np.abs(grad_h))
            for l in range(L + 1):
                delta = np.zeros_like(h)
                delta[l] = eps
                d_re = (loglik(h + delta, s) - loglik(h - delta, s)) / (2 * eps)
                d_im = (loglik(h + 1j * delta, s) - loglik(h - 1j * delta, s)) / (2 * eps)
                rel = abs((d_re + 1j * d_im) / 2 - grad_h[l]) / scale_h
                assert rel <= 1e-6, f"tap {l} gradient off by {rel:.2e} (trial {trial})"
                worst = max(worst, rel)
            scale_s = np.max(np.abs(grad_s))
            for k in rng.choice(s.size, size=3, replace=False):
                delta = np.zeros_like(s)
                delta[k] = eps
                d_re = (loglik(h, s + delta) - loglik(h, s - delta)) / (2 * eps)
                d_im = (loglik(h, s + 1j * delta) - loglik(h, s - 1j * delta)) / (2 * eps)
                rel = abs((d_re + 1j * d_im) / 2 - grad_s[k]) / scale_s
                assert rel <= 1e-6, f"symbol {k} gradient off by {rel:.2e}"
                worst = max(worst, rel)
        rec["detail"] = f"10 instances, worst rel err {worst:.2e} at tolerance 1e-6"


def test_criterion_3_fisher_information_properties():
    with criterion(3, "Fisher information structure") as rec:
        rng = np.random.default_rng(2026)
        worst_eig = 0.0
        worst_null = 0.0
        for trial in range(10):
            kind = ("cp", "zp")[trial % 2]
            M, L, N = [(4, 2, 3), (6, 2, 4), (5, 3, 3)][trial % 3]
            cfg = SystemConfig(M=M, L=L, N=N, sigma2=0.4, redundancy_kind=kind)
            pre = make_precoder(cfg)
            h = unit_channel(L, rng)
            s = generate_symbols("qpsk", M, N, rng).sN
            K, K_list = build_K(cfg, pre, h)
            J = assembled_fim(fim_blocks(K, K_list, s, cfg.sigma2))
            scale = np.linalg.norm(J)
            assert np.linalg.norm(J - J.conj().T) <= 1e-12 * scale, "not Hermitian"
            eigs = np.linalg.eigvalsh(J)
            assert eigs[0] >= -1e-10 * eigs[-1], f"not PSD (eigmin {eigs[0]:.2e})"
            worst_eig = max(worst_eig, -eigs[0] / eigs[-1])
            null_res = np.linalg.norm(J @ np.concatenate([h, -s])) / scale
            assert null_res <= 1e-10, f"ambiguity direction residual {null_res:.2e}"
            worst_null = max(worst_null, null_res)
        rec["detail"] = (
            f"10 instances Hermitian and PSD "
            f"(worst eigmin ratio {worst_eig:.1e}), scalar-ambiguity direction "
            f"annihilated to {worst_null:.1e}"
        )


def test_criterion_4_null_space_structure():
    with criterion(4, "left null space at M=12 L=4 N=8") as rec:
        cfg = SystemConfig(M=12, L=4, N=8)
        pre = make_precoder(cfg)
        h = unit_channel(4, np.random.default_rng(2027))
        K, _ = build_K(cfg, pre, h)
        basis = left_null_basis(K, cfg.L)
        n_cols = (cfg.N - 1) * cfg.L
        assert basis.utilde.shape == (K.shape[0], n_cols), basis.utilde.shape
        assert np.array_equal(basis.ghu[: cfg.L], np.zeros((cfg.L, n_cols)))
        assert np.array_equal(basis.ghu[-cfg.L:], np.zeros((cfg.L, n_cols)))
        projector_gap = np.linalg.norm(
            (np.eye(K.shape[0]) - K @ np.linalg.pinv(K))
            - basis.utilde @ basis.utilde.conj().T
        )
        assert projector_gap <= 1e-9, f"projector mismatch {projector_gap:.2e}"
        ortho = np.linalg.norm(K.conj().T @ basis.utilde)
        assert ortho <= 1e-9, f"basis not orthogonal to range ({ortho:.2e})"
        rec["detail"] = (
            f"{n_cols} columns, padding rows exactly zero, "
            f"projector identity to {projector_gap:.1e}"
        )


def test_criterion_5_partitioned_covariance_bound():
    with criterion(5, "covariance Schur complements") as rec:
        rng = np.random.default_rng(2028)
        worst = 0.0
        for _ in range(200):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 6))
            S = random_psd(n1 + n2, rng)
            residual = schur_cov_bound(
                S[:n1, :n1], S[:n1, n1:], S[n1:, :n1], S[n1:, n1:]
            )
            eigs = np.linalg.eigvalsh((residual + residual.conj().T) / 2)
            scale = max(eigs[-1], np.linalg.norm(S), 1e-300)
            assert eigs[0] >= -1e-10 * scale, f"residual not PSD ({eigs[0]:.2e})"
            worst = max(worst, -eigs[0] / scale)
        worst_eq = 0.0
        for _ in range(20):
            C = random_psd(4, rng) + np.eye(4)
            Mmap = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            S22 = Mmap @ C @ Mmap.conj().T
            residual = schur_cov_bound(C, C @ Mmap.conj().T, Mmap @ C, S22)
            rel = np.linalg.norm(residual) / np.linalg.norm(S22)
            assert rel < 1e-10, f"exact linear dependence left {rel:.2e}"
            worst_eq = max(worst_eq, rel)
        rec["detail"] = (
            f"200 random partitions PSD (worst eigmin ratio {worst:.1e}), "
            f"20 equality cases vanish to {worst_eq:.1e}"
        )


def test_criterion_6_linear_model_efficiency():
    with criterion(6, "least squares attains the unconstrained bound") as rec:
        rng = np.random.default_rng(2029)
        m, p, n_draws, sigma2 = 12, 4, 10_000, 0.5
        A = rng.standard_normal((m, p)) + 1j * rng.standard_normal((m, p))
        C = crb_unconstrained(A.conj().T @ A / sigma2)
        Apinv = np.linalg.pinv(A)
        E = np.sqrt(sigma2 / 2) * (
            rng.standard_normal((n_draws, m)) + 1j * rng.standard_normal((n_draws, m))
        )
        Delta = E @ Apinv.T  # row r is (x_hat - x0)^T for draw r
        C_emp = Delta.T @ Delta.conj() / n_draws
        rel = np.linalg.norm(C_emp - C) / np.linalg.norm(C)
        assert rel <= 0.05, f"empirical covariance off the bound by {rel:.3f}"
        rec["detail"] = (
            f"{n_draws} draws, empirical covariance within "
            f"{100 * rel:.2f}% Frobenius of the bound (gate 5%)"
        )


def test_criterion_7_desk_scale_tables():
    with criterion(7, "desk-scale estimator-vs-bound tables") as rec:
        start = time.perf_counter()
        grid = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
        tables = {}
        for inner in ("identity", "idft"):
            for N in (8, 25, 50):
                plan = ExperimentPlan(
                    config=SystemConfig(M=12, L=4, N=N, inner_kind=inner),
                    snr_db_grid=grid,
                    n_channels=20,
                    n_trials=5,
                    master_seed=0,
                )
                tables[(inner, N)] = run_experiment(plan)
        elapsed = time.perf_counter() - start

        # (a) the bound falls 10 dB per decade of SNR in every table
        slopes = []
        for records in tables.values():
            snr = np.array([r.snr_db for r in records])
            level = 10 * np.log10([r.crb_avg for r in records])
            slopes.append(np.polyfit(snr, level, 1)[0] * 10)
        worst_slope = max(slopes, key=lambda v: abs(v + 10))
        assert abs(worst_slope + 10) <= 1.0, f"slope {worst_slope:.2f} dB/decade"

        # (b) more blocks tighten the bound at every SNR
        for inner in ("identity", "idft"):
            for idx, snr in enumerate(grid):
                c8 = tables[(inner, 8)][idx].crb_avg
                c25 = tables[(inner, 25)][idx].crb_avg
                c50 = tables[(inner, 50)][idx].crb_avg
                assert c50 < c25 < c8, (
                    f"bound not decreasing in N at {snr} dB ({inner}): "
                    f"{c8:.3e}, {c25:.3e}, {c50:.3e}"
                )

        # (c) a unitary inner precoder moves the averaged bound by < 0.2 dB
        worst_gap = 0.0
        for N in (8, 25, 50):
            for idx, snr in enumerate(grid):
                a = tables[("identity", N)][idx].crb_avg
                b = tables[("idft", N)][idx].crb_avg
                gap = abs(10 * np.log10(a / b))
                assert gap <= 0.2, f"precoder gap {gap:.3f} dB at N={N}, {snr} dB"
                worst_gap = max(worst_gap, gap)

        # (d) the estimator never beats the bound on average
        cells = 0
        for records in tables.values():
            for r in records:
                assert r.mse_avg >= r.crb_avg, (
                    f"mse {r.mse_avg:.3e} below bound {r.crb_avg:.3e} "
                    f"at N={r.n_blocks}, {r.snr_db} dB"
                )
                assert r.excluded_trials == 0
                cells += 1

        assert elapsed < 900.0, f"took {elapsed:.0f}s, budget is 900s"
        rec["detail"] = (
            f"slopes -10{worst_slope + 10:+.2f} dB/decade, bound falls with N, "
            f"precoder gap <= {worst_gap:.3f} dB, mse >= bound in all {cells} "
            f"cells, {elapsed:.0f}s"
        )


def test_criterion_8_zero_padding_reference_margin():
    with criterion(8, "zero-padding per-block reference margin") as rec:
        margins = {}
        for N in (8, 25, 50):
            plan = ExperimentPlan(
                config=SystemConfig(M=12, L=4, N=N, redundancy_kind="zp"),
                snr_db_grid=(20.0,),
                n_channels=4,
                n_trials=2,
                master_seed=0,
                compute_zp_reference=True,
            )
            record = run_cell(plan, 20.0)
            margins[N] = 10 * np.log10(record.crb_avg / record.crb_zp_ref_avg)
        for N, margin in margins.items():
            assert 0.0 < margin < 1.0, f"margin {margin:.3f} dB at N={N}"
        assert margins[8] >= margins[25] >= margins[50], (
            f"margins not nonincreasing: {margins}"
        )
        rec["detail"] = (
            "frame bound above the keep-all-samples reference by "
            + ", ".join(f"{margins[N]:.3f} dB (N={N})" for N in (8, 25, 50))
        )


def test_criterion_9_estimator_behaviour():
    with criterion(9, "subspace estimator sanity") as rec:
        worst = 0.0
        for kind in ("cp", "zp"):
            for inner in ("identity", "idft"):
                cfg = SystemConfig(
                    M=12, L=4, N=25, redundancy_kind=kind, inner_kind=inner
                )
                pre = make_precoder(cfg)
                h = unit_channel(4, np.random.default_rng(2030))
                s = generate_symbols("qpsk", 12, 25, 2031).sN
                y = synthesize_observation(pre, h, s, 0.0, None)
                est = subspace_estimate(y, pre, EstimatorSettings())
                d = default_anchor(h)
                err = np.linalg.norm(resolve_ambiguity(est, d, h[d]) - h)
                assert err < 1e-6, f"noiseless error {err:.2e} ({kind}/{inner})"
                worst = max(worst, err)

        plan = ExperimentPlan(
            config=SystemConfig(M=12, L=4, N=25),
            snr_db_grid=(30.0,),
            n_channels=20,
            n_trials=5,
            master_seed=0,
        )
        record = run_cell(plan, 30.0)
        assert record.mse_avg > record.crb_avg, (
            f"mse {record.mse_avg:.3e} not above bound {record.crb_avg:.3e}"
        )
        rec["detail"] = (
            f"noiseless recovery to {worst:.1e} on 4 precoder combinations; "
            f"at 30 dB, N=25: mse {record.mse_avg:.2e} vs bound "
            f"{record.crb_avg:.2e}"
        )
