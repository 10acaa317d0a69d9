"""Acceptance gates for the full workflow.

Each test prints one PASS/FAIL line (visible with `pytest -s` or in the
captured output) before asserting, so a red criterion still reports its
measured values.
"""

import math
import time

import numpy as np
import pytest

from pcdl.estimation import compute_alpha, crandn
from pcdl.geometry import ScenarioConfig, build_scenario
from pcdl.harness import PRACTICAL_M_VALUES, SweepConfig, run_sweep, write_sweep_csv
from pcdl.mc_oracle import empirical_moments
from pcdl.rate_core import Precoder, effective_gain, power_decomposition
from pcdl.schemes import _snd_at_receiver
from reference import (MiTerms2, c_lb, p2_mrt_compact, power_decomposition_mrt,
                       snd_region, zf_precoder)
from test_schemes import random_mi_triple

PAPER_M = (128, 256, 1024)
ASYMPTOTIC_M = (10_000, 40_000, 100_000, 400_000, 1_000_000, 4_000_000,
                10_000_000)

# A bound whose p1/noise x doubles with M gains log2((1 + 2x) / (1 + x)) bits
# per doubling; that is at least 1 - ONE_BIT_TOL exactly when x >= X_STAR.
ONE_BIT_TOL = 0.05
X_STAR = (2 ** (1 - ONE_BIT_TOL) - 1) / (2 - 2 ** (1 - ONE_BIT_TOL))


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {name} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def default_sweep_timed():
    # reference protocol: 150 drops, M = 32..1024, both precoders, 21x21 grid
    cfg = SweepConfig(m_values=PRACTICAL_M_VALUES)
    t0 = time.perf_counter()
    result = run_sweep(cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def asymptotic_sweep():
    cfg = SweepConfig(m_values=ASYMPTOTIC_M, precoders=("ZF",))
    return run_sweep(cfg)


def _mean(result, M, scheme, prec):
    return result.row(M, scheme, prec).mean_se


def _gain(result, M, scheme, prec):
    return _mean(result, M, scheme, prec) / _mean(result, M, "TIN", prec) - 1.0


def test_criterion_1_oracle_equivalence():
    """Closed-form theta, noise power and per-user power against the
    channel-sampling oracle, 5 standard errors at 1e4 trials."""
    cfg = ScenarioConfig()
    rng = np.random.default_rng(20_240)
    omegas = [(0,), (1,), (0, 1)]
    failures = []
    for c in range(20):
        drop = int(rng.integers(cfg.n_drops))
        scenario = build_scenario(cfg, drop)
        stats = compute_alpha(scenario)
        receiver = (int(rng.integers(cfg.K)), int(rng.integers(cfg.L)))
        precoder = Precoder.MRT if rng.integers(2) == 0 else Precoder.ZF
        omega = omegas[int(rng.integers(3))]
        M = 64 if rng.integers(2) == 0 else 256
        mom = empirical_moments(scenario, stats, M, precoder, receiver,
                                trials=10_000, rng=rng)
        theta = effective_gain(scenario, stats, M, precoder, receiver).theta
        noise = power_decomposition(scenario, stats, M, precoder, receiver,
                                    omega).noise
        tag = f"combo{c}(drop={drop},M={M},{precoder.value},rcvr={receiver})"
        if not np.all(np.abs(mom.mean_gain - theta) <= 5 * mom.gain_se):
            failures.append(f"{tag}: gain")
        if abs(mom.noise_var - noise) > 5 * mom.noise_se:
            failures.append(f"{tag}: noise")
        if not np.all(np.abs(mom.power - scenario.rho_d) <= 5 * mom.power_se):
            failures.append(f"{tag}: power")
    ok = _report("1 (oracle equivalence)", not failures,
                 failures or "20 combos x 1e4 trials, all |z| <= 5")
    assert ok, failures


def test_criterion_2_mrt_gains(default_sweep_timed):
    """Mean SND and PD gains over TIN with MRT, wide bands around the
    reference relative gains."""
    result, _ = default_sweep_timed
    snd_bands = {128: (0.04, 0.16), 256: (0.05, 0.20), 1024: (0.08, 0.34)}
    pd_bands = {128: (0.15, 0.58), 256: (0.18, 0.72), 1024: (0.36, 1.44)}
    msgs, ok = [], True
    for M in PAPER_M:
        g_snd = _gain(result, M, "SND", "MRT")
        g_pd = _gain(result, M, "PD", "MRT")
        ok &= snd_bands[M][0] <= g_snd <= snd_bands[M][1]
        ok &= pd_bands[M][0] <= g_pd <= pd_bands[M][1]
        msgs.append(f"M={M}: snd {100 * g_snd:+.2f}% (want {100 * snd_bands[M][0]:.0f}"
                    f"..{100 * snd_bands[M][1]:.0f}%), pd {100 * g_pd:+.2f}% "
                    f"(want {100 * pd_bands[M][0]:.0f}..{100 * pd_bands[M][1]:.0f}%)")
    assert _report("2 (MRT gains)", ok, "; ".join(msgs)), msgs


def test_criterion_3_zf_gains(default_sweep_timed):
    """Mean SND and PD gains over TIN with ZF, +-50% relative bands."""
    result, _ = default_sweep_timed
    snd_ref = {128: 0.11, 256: 0.17, 1024: 0.34}
    pd_ref = {128: 0.96, 256: 1.08, 1024: 1.33}
    msgs, ok = [], True
    for M in PAPER_M:
        g_snd = _gain(result, M, "SND", "ZF")
        g_pd = _gain(result, M, "PD", "ZF")
        ok &= 0.5 * snd_ref[M] <= g_snd <= 1.5 * snd_ref[M]
        ok &= 0.5 * pd_ref[M] <= g_pd <= 1.5 * pd_ref[M]
        msgs.append(f"M={M}: snd {100 * g_snd:+.2f}% (want {100 * 0.5 * snd_ref[M]:.1f}"
                    f"..{100 * 1.5 * snd_ref[M]:.1f}%), pd {100 * g_pd:+.2f}% "
                    f"(want {100 * 0.5 * pd_ref[M]:.0f}..{100 * 1.5 * pd_ref[M]:.0f}%)")
    assert _report("3 (ZF gains)", ok, "; ".join(msgs)), msgs


def test_criterion_4a_per_drop_orderings(default_sweep_timed):
    """PD >= TIN and SND >= max(TIN, SD) on every single drop, no tolerance."""
    result, _ = default_sweep_timed
    bad = 0
    for prec in ("MRT", "ZF"):
        for M in (32, 64, 128, 256, 512, 1024):
            tin = result.per_drop[(M, prec, "TIN")]
            sd = result.per_drop[(M, prec, "SD")]
            snd = result.per_drop[(M, prec, "SND")]
            pd = result.per_drop[(M, prec, "PD")]
            bad += int(np.sum(pd < tin)) + int(np.sum(snd < tin)) + int(np.sum(snd < sd))
    ok = _report("4a (per-drop orderings)", bad == 0,
                 f"{bad} violations across {150 * 12} drop evaluations")
    assert ok


def test_criterion_4b_mean_orderings(default_sweep_timed):
    """Strict mean ordering PD > SND > TIN for M >= 128, both precoders."""
    result, _ = default_sweep_timed
    msgs, ok = [], True
    for prec in ("MRT", "ZF"):
        for M in (128, 256, 512, 1024):
            tin = _mean(result, M, "TIN", prec)
            snd = _mean(result, M, "SND", prec)
            pd = _mean(result, M, "PD", prec)
            here = pd > snd > tin
            ok &= here
            if not here:
                msgs.append(f"{prec} M={M}: pd={pd:.4f} snd={snd:.4f} tin={tin:.4f}")
    assert _report("4b (mean orderings M>=128)", ok, msgs or "PD > SND > TIN"), msgs


def test_criterion_4c_pd_beats_tin_small_m(default_sweep_timed):
    """With MRT the split scheme already wins at M = 32."""
    result, _ = default_sweep_timed
    pd = _mean(result, 32, "PD", "MRT")
    tin = _mean(result, 32, "TIN", "MRT")
    ok = _report("4c (MRT PD > TIN at M=32)", pd > tin,
                 f"pd={pd:.6f} tin={tin:.6f}")
    assert ok


def test_criterion_5_sd_crossover(asymptotic_sweep):
    """Smallest swept M where mean SD exceeds mean TIN (ZF), order-of-
    magnitude gate [4e4, 4e6]."""
    result = asymptotic_sweep
    crossover = None
    for M in ASYMPTOTIC_M:
        if _mean(result, M, "SD", "ZF") > _mean(result, M, "TIN", "ZF"):
            crossover = M
            break
    ok = crossover is not None and 4e4 <= crossover <= 4e6
    if crossover is None:
        M = ASYMPTOTIC_M[-1]
        detail = (f"no mean SD > mean TIN up to M={M} (sd="
                  f"{_mean(result, M, 'SD', 'ZF'):.4f} tin="
                  f"{_mean(result, M, 'TIN', 'ZF'):.4f})")
    else:
        detail = f"first mean SD > mean TIN at M={crossover}"
    assert _report("5 (SD crossover)", ok, detail)


def test_criterion_6a_tin_saturation(asymptotic_sweep):
    """Mean TIN changes by less than 1% between M = 1e6 and 1e7."""
    result = asymptotic_sweep
    a = _mean(result, 1_000_000, "TIN", "ZF")
    b = _mean(result, 10_000_000, "TIN", "ZF")
    rel = abs(b - a) / a
    assert _report("6a (TIN saturation)", rel < 0.01,
                   f"mean TIN {a:.4f} -> {b:.4f} ({100 * rel:.2f}%)")


def test_criterion_6b_one_bit_per_doubling(paper_drop):
    """Decode-set bounds gain 1 +- 0.05 bits per doubling of M once they have
    cleared the noise.

    A bound whose p1/noise x grows in proportion to M gains
    log2((1 + 2x) / (1 + x)) bits per doubling, which is within 0.05 of one
    bit exactly when x >= X_STAR = (2^0.95 - 1) / (2 - 2^0.95) (11.36 dB).
    Rule: start each bound at M = 2^18 and double M until its closed-form
    p1/noise reaches X_STAR; it must do so by M = 2^40. At that M the gain
    must be 1 +- 0.05 bits, and the gains from 2^18 up to it never decrease.
    """
    scenario, stats = paper_drop
    failures, checked_at, worst = [], [], 0.0
    for prec in (Precoder.MRT, Precoder.ZF):
        for l in range(2):
            for omega in [(0,), (1,), (0, 1)]:
                M, gains = 2 ** 18, []
                while True:
                    pd = power_decomposition(scenario, stats, M, prec, (0, l), omega)
                    hi = power_decomposition(scenario, stats, 2 * M, prec, (0, l), omega)
                    gains.append(c_lb(hi) - c_lb(pd))
                    snr = pd.p1 / pd.noise
                    if snr >= X_STAR or M >= 2 ** 40:
                        break
                    M *= 2
                gain = gains[-1]
                worst = max(worst, abs(gain - 1.0))
                tag = (f"{prec.value} rcvr=(0, {l}) omega={set(omega)} "
                       f"M=2^{M.bit_length() - 1} snr={10 * math.log10(snr):.2f}dB "
                       f"gain={gain:.4f}")
                if M > 2 ** 18:
                    checked_at.append(tag)
                if snr < X_STAR:
                    failures.append(f"{tag}: below X_STAR at 2^40")
                elif abs(gain - 1.0) > ONE_BIT_TOL:
                    failures.append(f"{tag}: |gain - 1| > {ONE_BIT_TOL}")
                if any(b < a for a, b in zip(gains, gains[1:])):
                    failures.append(f"{tag}: gains decrease {gains}")
    rule = (f"from M=2^18, double until p1/noise >= {X_STAR:.2f} "
            f"({10 * math.log10(X_STAR):.2f}dB)")
    detail = (f"{rule}; failing: {failures}" if failures else
              f"{rule}; max |gain - 1| = {worst:.4f} bits; "
              f"checked above 2^18: {checked_at or 'none'}")
    assert _report("6b (1 bit per doubling)", not failures, detail), failures


def test_criterion_6c_pd_snd_converge(asymptotic_sweep):
    """PD and SND means within 5% of each other at M = 1e6 with ZF."""
    result = asymptotic_sweep
    snd = _mean(result, 1_000_000, "SND", "ZF")
    pd = _mean(result, 1_000_000, "PD", "ZF")
    rel = abs(pd - snd) / snd
    assert _report("6c (PD-SND convergence)", rel < 0.05,
                   f"snd={snd:.4f} pd={pd:.4f} gap {100 * rel:.2f}%")


def test_criterion_7_unit_identities(paper_drop):
    """Exact identities: ZF residual, SND closed form, MRT power split and
    hardening coefficient."""
    scenario, stats = paper_drop
    msgs, ok = [], True

    rng = np.random.default_rng(3)
    ghat = crandn(rng, (64, 15))
    residual = np.abs(zf_precoder(ghat).conj().T @ ghat - np.eye(15)).max()
    ok &= residual < 1e-9
    msgs.append(f"zf residual {residual:.2e}")

    rng = np.random.default_rng(123)
    worst_snd = 0.0
    for _ in range(10_000):
        i_own, i_oth, i_12 = random_mi_triple(rng)
        mi = MiTerms2((0, 0), i_own, i_oth, i_12)
        oracle = snd_region(mi, 0).max_symmetric(tol=1e-12)
        worst_snd = max(worst_snd, abs(_snd_at_receiver(i_own, i_oth, i_12) - oracle))
    ok &= worst_snd < 1e-9
    msgs.append(f"snd vs bisection {worst_snd:.2e}")

    worst_p2 = 0.0
    for M in (32, 256, 4096):
        for rcvr in [(0, 0), (0, 1)]:
            pd = power_decomposition_mrt(scenario, stats, M, rcvr, ())
            compact = p2_mrt_compact(scenario, stats, M, rcvr)
            worst_p2 = max(worst_p2, abs(pd.p2 - compact) / compact)
    ok &= worst_p2 <= 1e-12
    msgs.append(f"p2 two-part vs compact rel {worst_p2:.2e}")

    worst_th = 0.0
    srp, K = math.sqrt(scenario.rho_p), scenario.users_per_cell
    for M in (16, 1024, 2 ** 20):
        for l in range(2):
            theta = effective_gain(scenario, stats, M, Precoder.MRT, (0, l)).theta
            for j in range(2):
                limit = (math.sqrt(K * scenario.rho_d * scenario.rho_p)
                         * scenario.beta[j, 0, l] * stats.alpha[j, 0, j]
                         / math.sqrt(math.fsum(stats.gamma()[j])))
                worst_th = max(worst_th, abs(theta[j] / math.sqrt(M) - limit) / limit)
    ok &= worst_th <= 1e-12
    msgs.append(f"theta/sqrt(M) vs limit rel {worst_th:.2e}")

    assert _report("7 (unit identities)", ok, "; ".join(msgs)), msgs


def test_criterion_8_reproducibility_and_runtime(tmp_path, default_sweep_timed):
    """Byte-identical sweep CSV on re-run; full default sweep under 10 min."""
    result, elapsed = default_sweep_timed
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(result, str(p1))
    write_sweep_csv(run_sweep(SweepConfig(m_values=PRACTICAL_M_VALUES)), str(p2))
    identical = p1.read_bytes() == p2.read_bytes()
    ok = identical and elapsed < 600.0
    assert _report("8 (reproducibility/runtime)", ok,
                   f"byte-identical={identical}, sweep took {elapsed:.1f}s")
