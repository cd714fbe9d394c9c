"""End-to-end acceptance checks, one per numbered criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Criterion 8 is split into its three named assertions (a: TV
threshold, b: KL bound, c: window sharpening) so each reports its own line;
the TV witness is checked against the exact scaled chi-square oracle
first, and the threshold is then asserted where the exact law puts it at
finite n: the TV at 0.7 c_n rises along the ladder, and the 0.9 crossing
sits where the exact TV is 0.9, before c_n and moving toward it.  A fixed
level of 0.9 at 0.7 c_n holds for the exact law only from n = 161 on.
"""

import glob
import itertools
import json
import math
import os

import numpy as np
import pytest
from scipy import integrate, stats

from dyson_laguerre import (
    MatrixParams,
    ModelParams,
    NumericError,
    RngStream,
    carre_du_champ,
    cir_exact_transition,
    dl_paths_batch,
    duhamel_variance,
    gamma2_definitional,
    gamma2_explicit,
    geodesic_point,
    matrix_dl_path,
    ou_closed_form_distances,
    parse_config,
    riemannian_distance,
    run,
    run_cutoff_profile,
    sample_equilibrium_batch,
    wasserstein_intrinsic,
    wg_decay_estimate,
    zero_start_tv,
)
from dyson_laguerre.coupling import coupled_distance_curve
from dyson_laguerre.geometry import random_ordered_states, random_test_function

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------- criterion 1


def test_criterion_01_ou_closed_forms_match_quadrature():
    p, z0_norm_sq = MatrixParams(1, 1, kappa=1.2, gamma=0.8), 5.0
    stationary_var = p.kappa**2 / (2.0 * p.gamma)
    sd_t = lambda t: math.sqrt(stationary_var * (1.0 - math.exp(-2.0 * p.gamma * t)))
    mu_t = lambda t: math.sqrt(z0_norm_sq) * math.exp(-p.gamma * t)
    sd_inf = math.sqrt(stationary_var)
    for t in np.linspace(0.1, 5.0, 20):
        got = ou_closed_form_distances(p, float(t), z0_norm_sq)
        pt = stats.norm(mu_t(t), sd_t(t))
        pi = stats.norm(0.0, sd_inf)
        lim = mu_t(t) + 12.0 * max(sd_t(t), sd_inf)
        kl_num, _ = integrate.quad(
            lambda x: pt.pdf(x) * (pt.logpdf(x) - pi.logpdf(x)), -lim, lim, limit=600
        )
        assert abs(got["KL"].value - kl_num) <= 1e-6
        chi2_num, _ = integrate.quad(
            lambda x: (pt.pdf(x) - pi.pdf(x)) ** 2 / pi.pdf(x), -lim, lim, limit=600
        )
        assert abs(got["L2"].value - math.sqrt(chi2_num)) <= 1e-6
        w2_oracle = math.sqrt(mu_t(t) ** 2 + (sd_t(t) - sd_inf) ** 2)
        assert abs(got["W2"].value - w2_oracle) <= 1e-10


# ---------------------------------------------------------------- criterion 2


def test_criterion_02_curvature_certificate():
    rng = np.random.default_rng(202)
    for n, beta in itertools.product(range(2, 7), (1.0, 2.0, 4.0)):
        params = ModelParams(n, 1.5 + (n - 1) * beta / 2.0, beta)
        assert params.delta > 1
        min_gap = math.inf
        for _ in range(1000):
            state = random_ordered_states(params, rng, 1)[0]
            f = random_test_function(n, rng, degree=2)
            g2, terms = gamma2_explicit(f, state, params, return_terms=True)
            gam = carre_du_champ(f, state)
            scale = max(1.0, sum(abs(v) for v in terms) + abs(0.5 * gam))
            gap = (g2 - 0.5 * gam) / scale
            min_gap = min(min_gap, gap)
            g2_def = gamma2_definitional(f, state, params)
            rel = abs(g2 - g2_def) / max(1.0, abs(g2), abs(g2_def))
            assert rel <= 1e-9, (n, beta, rel)
        assert min_gap >= -1e-8, (n, beta, min_gap)


# ---------------------------------------------------------------- criterion 3


def test_criterion_03_cir_exact_transitions():
    rng = np.random.default_rng(303)
    size = 100_000
    x0, t, a = 2.0, 0.9, 3.5
    draws = cir_exact_transition(np.full(size, x0), t, a, rng)
    ec, c = math.exp(-t), 1.0 - math.exp(-t)
    mean = x0 * ec + a * c
    var = 2.0 * x0 * ec * c + a * c * c
    assert abs(draws.mean() - mean) <= 3.0 * math.sqrt(var / size)
    m4 = stats.moment(draws, 4)
    assert abs(draws.var() - var) <= 3.0 * math.sqrt((m4 - var**2) / size)

    stat0 = rng.standard_gamma(a, 40_000)
    stat1 = cir_exact_transition(stat0, 1.1, a, rng)
    assert stats.kstest(stat1, "gamma", args=(a,)).pvalue > 0.01

    comp = cir_exact_transition(cir_exact_transition(np.full(40_000, x0), 0.4, a, rng), 0.7, a, rng)
    direct = cir_exact_transition(np.full(40_000, x0), 1.1, a, rng)
    assert stats.ks_2samp(comp, direct).pvalue > 0.01


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_route_equivalence():
    n = m = 4
    mp = MatrixParams.bru(n, m)
    params = mp.induced_model()
    x0 = np.array([1.0, 2.0, 3.0, 4.0])
    reps = 10_000
    t = 1.0

    sde_phi = dl_paths_batch(x0, [t], params, RngStream(404, 0), replicas=reps,
                             dt=1e-3)[0].sum(axis=1)

    # the matrix route draws from one generator, from x0's aligned start
    gen = RngStream(404, 1).generator()
    mat_phi = matrix_dl_path(x0, [t], mp, gen, replicas=reps)[0].sum(axis=1)

    assert stats.ks_2samp(sde_phi, mat_phi).pvalue > 0.01


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_geometry():
    rng = np.random.default_rng(505)
    n = 5
    trip = rng.gamma(3.0, 1.0, (3, 10_000, n))
    trip.sort(axis=2)
    sq = np.sqrt(trip)
    dxy = 2.0 * np.linalg.norm(sq[0] - sq[1], axis=1)
    dyz = 2.0 * np.linalg.norm(sq[1] - sq[2], axis=1)
    dxz = 2.0 * np.linalg.norm(sq[0] - sq[2], axis=1)
    assert np.all(dxz <= dxy + dyz + 1e-12)

    for _ in range(50):
        x = np.sort(rng.gamma(3.0, 1.0, n))
        y = np.sort(rng.gamma(3.0, 1.0, n))
        assert np.allclose(geodesic_point(x, y, 0.0), x, rtol=1e-14, atol=1e-14)
        assert np.allclose(geodesic_point(x, y, 1.0), y, rtol=1e-14, atol=1e-14)
        d = riemannian_distance(x, y)
        for s in (0.2, 0.5, 0.8):
            mid = geodesic_point(x, y, s)
            assert abs(riemannian_distance(x, mid) - s * d) <= 1e-8

    for _ in range(30):
        a = np.sort(rng.gamma(3.0, 1.0, (7, 3)), axis=1)
        b = np.sort(rng.gamma(3.0, 1.0, (7, 3)), axis=1)
        est = wasserstein_intrinsic(a, b, order=2)
        cost = np.zeros((7, 7))
        for i in range(7):
            for j in range(7):
                cost[i, j] = 2.0 * np.linalg.norm(np.sqrt(a[i]) - np.sqrt(b[j]))
        best = min(
            float(np.mean(cost[list(range(7)), list(perm)] ** 2))
            for perm in itertools.permutations(range(7))
        )
        assert abs(est.value - math.sqrt(best)) <= 1e-12


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_exponential_decay():
    params = ModelParams(4, 4.0, 1.0)
    x0 = np.array([0.5, 1.0, 1.5, 2.0])
    times = np.arange(0.5, 6.01, 0.5)
    curve = wg_decay_estimate(x0, times, params, 500, RngStream(606, 0))
    for t, v, se in zip(curve.times, curve.values, curve.stderrs):
        bound = math.exp(-t / 2.0) * curve.w0 + 3.0 * (curve.floor + se)
        assert v <= bound, (t, v, bound)


def test_criterion_06_config_runs_at_seed_206():
    # the model is the spectrum of the 4 x 8 matrix flow, so the decay
    # samples Law(X_t) exactly and takes no step that could be rejected
    params = ModelParams(4, 4.0, 1.0)
    x0 = np.array([0.5, 1.0, 1.5, 2.0])
    times = np.arange(0.5, 6.01, 0.5)
    curve = wg_decay_estimate(x0, times, params, 500, RngStream(206, 0))
    assert np.all(np.isfinite(curve.values))


@pytest.mark.xfail(
    strict=True,
    raises=NumericError,
    reason="the explicit Euler step exhausts step halving (dt = 1.221e-07) on criterion "
    "06's certified-regime (delta = 2.5) config at seed 206; the step that never "
    "rejects (ROADMAP item 3) turns this test on",
)
def test_criterion_06_euler_paths_run_at_seed_206():
    # the Euler paths that criterion 06's decay integrated at seed 206 before
    # it sampled this realizable model from the matrix flow: the same draws,
    # the start cloud, eq0 and the two floor clouds, then the paths
    params = ModelParams(4, 4.0, 1.0)
    x0 = np.array([0.5, 1.0, 1.5, 2.0])
    times = np.arange(0.5, 6.01, 0.5)
    gen = RngStream(206, 0).generator()
    for _ in range(3):
        sample_equilibrium_batch(params, gen, 500)
    paths = dl_paths_batch(x0, times, params, gen, replicas=500)
    assert np.all(np.isfinite(paths))


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_mirror_domination():
    params = ModelParams(4, 4.0, 1.0)
    x0 = np.array([0.5, 1.0, 1.5, 2.0])
    y0 = np.array([1.0, 2.0, 3.0, 4.0])
    times = np.arange(0.5, 6.01, 0.5)
    mean, stderr, _ = coupled_distance_curve(
        x0, y0, times, params, RngStream(707, 0), replicas=500
    )
    d0 = riemannian_distance(x0, y0)
    for t, m, se in zip(times, mean, stderr):
        assert m <= math.exp(-t / 2.0) * d0 + 3.0 * se, (t, m)


# ---------------------------------------------------------------- criterion 8

# exact values of the distances measured at the two probe times, computed
# from the scaled chi-square transition laws (phi_t is (1 - e^{-t}) times a
# Gamma(N, 1) variable from the zero start, N = n*m/2).  From the zero start
# the likelihood ratio of the matrix law depends only on phi, so these are
# the TV and KL of the whole particle law.  Cutoff makes the TV at 0.7 c_n
# tend to 1, not exceed 0.9 at a given n: on this ladder it is 0.619, 0.794
# and 0.877, and 0.9 is reached at 0.7 c_n only from n = 161 on.
TV_ORACLE = {16: 0.619031, 64: 0.794424, 128: 0.876842}
KL_ORACLE = {16: 0.048243, 64: 0.020679, 128: 0.013619}

LADDER = [16, 64, 128]
MULTS = [0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6]


@pytest.fixture(scope="module")
def profile8():
    config = {
        "mode": "cutoff-profile",
        "n": LADDER,
        "times": MULTS,
        "replicas": 3000,
        "distances": ["TV", "KL"],
        "seed": 808,
    }
    return run_cutoff_profile(config)


def _row_at(profile, n, kind, multiplier):
    cn = profile.critical_times[n]
    rows = profile.rows_for(n=n, kind=kind)
    target = multiplier * cn
    best = min(rows, key=lambda r: abs(r.t - target))
    assert abs(best.t - target) < 1e-9 * max(1.0, target)
    return best


def test_criterion_08a_cutoff_profile_tv_threshold(profile8):
    for n in LADDER:
        assert profile8.critical_times[n] == pytest.approx(math.log(n))
        row = _row_at(profile8, n, "TV", 0.7)
        oracle = zero_start_tv(n * n / 2.0, row.t)
        assert oracle == pytest.approx(TV_ORACLE[n], abs=1e-5)
        # soundness: the witness measures the exact TV of the projected law
        assert abs(row.value - oracle) <= row.stderr + 0.01, (n, row.value, oracle)
    # pre-cutoff level: the TV at t = 0.7 c_n rises along the ladder toward 1
    levels = [_row_at(profile8, n, "TV", 0.7).value for n in LADDER]
    assert all(a < b < 1.0 for a, b in zip(levels, levels[1:])), levels
    # the 0.9 crossing lies where the exact TV is 0.9, before c_n, and moves
    # toward c_n as n grows
    fractions = []
    for n in LADDER:
        t_hi = profile8.tv_window(n)["t_hi"]
        stderr = min(profile8.rows_for(n=n, kind="TV"), key=lambda r: abs(r.t - t_hi)).stderr
        exact = zero_start_tv(n * n / 2.0, t_hi)
        assert abs(exact - 0.9) <= stderr + 0.01, (n, t_hi, exact)
        fractions.append(t_hi / profile8.critical_times[n])
    assert all(a < b < 1.0 for a, b in zip(fractions, fractions[1:])), fractions


def test_criterion_08b_cutoff_profile_kl_bound(profile8):
    for n in LADDER:
        row = _row_at(profile8, n, "KL", 1.3)
        assert row.bound_upper == pytest.approx(KL_ORACLE[n], rel=1e-3)
        assert row.bound_upper <= 0.05, (n, row.bound_upper)


def test_criterion_08c_cutoff_profile_window_sharpens(profile8):
    ratios = [profile8.tv_window(n)["ratio"] for n in LADDER]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_duhamel_variance():
    n = m = 4
    mp = MatrixParams.bru(n, m)
    params = mp.induced_model()
    x0 = np.array([1.0, 2.0, 3.0, 4.0])
    m0 = np.zeros((n, m))
    np.fill_diagonal(m0, np.sqrt(m * x0))
    rng = np.random.default_rng(909)
    reps = 20_000
    for t in (0.5, 1.0, 2.0):
        decay = math.exp(-mp.gamma * t)
        v_t = mp.kappa**2 * (1.0 - math.exp(-2.0 * mp.gamma * t)) / (2.0 * mp.gamma)
        mt = decay * m0[None, :, :] + math.sqrt(v_t) * rng.standard_normal((reps, n, m))
        phi = np.sum(mt**2, axis=(1, 2)) / m
        closed = duhamel_variance(x0, t, params)
        sample_var = phi.var()
        m4 = stats.moment(phi, 4)
        se_var = math.sqrt((m4 - sample_var**2) / reps)
        assert abs(sample_var - closed) <= 3.0 * se_var, (t, sample_var, closed)


# --------------------------------------------------------------- criterion 10


def test_criterion_10_shipped_profiles_sandwich_and_determinism(tmp_path):
    configs = sorted(glob.glob(os.path.join(REPO_ROOT, "configs", "*.cfg")))
    assert configs, "no shipped example configs found"
    ran_any = False
    for k, cfg_path in enumerate(configs):
        with open(cfg_path) as fh:
            config = parse_config(fh.read())
        if config["mode"] != "cutoff-profile":
            continue
        ran_any = True
        out_a = tmp_path / f"a{k}"
        out_b = tmp_path / f"b{k}"
        ma = run(dict(config, out_dir=str(out_a)))
        mb = run(dict(config, out_dir=str(out_b)))
        assert [o["sha256"] for o in ma.outputs] == [o["sha256"] for o in mb.outputs]
        (profile_path,) = [
            o["path"] for o in ma.outputs if os.path.basename(o["path"]) == "profile.json"
        ]
        with open(out_a / profile_path) as fh:
            doc = json.load(fh)
        assert doc["rows"], cfg_path
        for r in doc["rows"]:
            lo = r["bound_lower"] - 3.0 * r["stderr"]
            up = r["bound_upper"] + 3.0 * r["stderr"]
            assert lo <= r["value"] <= up, (cfg_path, r)
    assert ran_any
