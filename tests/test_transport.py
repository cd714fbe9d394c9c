import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, special, stats

import dyson_laguerre
from dyson_laguerre import (
    DomainError,
    EmptySample,
    EmpiricalMeasure,
    MatrixParams,
    SizeMismatch,
    UnnormalizedReference,
    ValidationError,
    kl_projected_estimate,
    mixing_time_ou,
    ou_closed_form_distances,
    tv_threshold_witness,
    wasserstein_intrinsic,
)
from dyson_laguerre import transport
from dyson_laguerre.transport import _knn_distances, gaussian_tv


def _stationary_var(p):
    return p.kappa**2 / (2.0 * p.gamma)


def _scalar_gaussians(p, t, z0_norm_sq):
    mu = math.sqrt(z0_norm_sq) * math.exp(-p.gamma * t)
    vt = _stationary_var(p) * (1.0 - math.exp(-2.0 * p.gamma * t))
    return mu, vt, _stationary_var(p)


def test_ou_closed_forms_vs_quadrature():
    # scalar flow: time-t law is N(z0 e^{-gt}, vt); integrate the
    # divergences numerically and compare with the closed forms
    p = MatrixParams(1, 1, kappa=1.3, gamma=0.7)
    for t in (0.3, 1.0, 2.5):
        got = ou_closed_form_distances(p, t, 4.0)
        mu, vt, vinf = _scalar_gaussians(p, t, 4.0)
        pt = stats.norm(mu, math.sqrt(vt))
        pi = stats.norm(0.0, math.sqrt(vinf))

        kl_num, _ = integrate.quad(
            lambda x: pt.pdf(x) * (pt.logpdf(x) - pi.logpdf(x)), -40, 40, limit=400
        )
        assert got["KL"].value == pytest.approx(kl_num, abs=1e-8)

        chi2_num, _ = integrate.quad(
            lambda x: (pt.pdf(x) - pi.pdf(x)) ** 2 / pi.pdf(x), -40, 40, limit=400
        )
        assert got["L2"].value == pytest.approx(math.sqrt(chi2_num), rel=1e-7)

        w2_exact = math.sqrt(mu**2 + (math.sqrt(vt) - math.sqrt(vinf)) ** 2)
        assert got["W2"].value == pytest.approx(w2_exact, abs=1e-12)


def test_ou_closed_forms_monotone_to_zero():
    p = MatrixParams(2, 3, kappa=1.0, gamma=0.5)
    ts = np.linspace(0.5, 14.0, 16)
    for key in ("KL", "L2", "W2"):
        vals = [ou_closed_form_distances(p, t, 9.0)[key].value for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2


def test_ou_closed_form_l2_overflow_is_inf():
    p = MatrixParams(1, 1, kappa=1.0, gamma=1.0)
    got = ou_closed_form_distances(p, 1e-3, 1e6)
    assert got["L2"].value == math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_ou_flow_rejects_non_finite_parameters(bad):
    with pytest.raises(ValidationError):
        MatrixParams(2, 3, bad, 0.5)
    with pytest.raises(ValidationError):
        MatrixParams(2, 3, 1.0, bad)
    p = MatrixParams(2, 3, 1.0, 0.5)
    with pytest.raises(DomainError):
        ou_closed_form_distances(p, 1.0, bad)
    for kind in ("TV", "KL", "L2", "W"):
        with pytest.raises(DomainError):
            mixing_time_ou(kind, p, bad)


def test_gaussian_tv_vs_quadrature():
    cases = [(0.0, 1.0, 2.0), (1.5, 1.0, 1.0), (0.7, 0.5, 2.5)]
    for mu, v1, v2 in cases:
        p1 = stats.norm(mu, math.sqrt(v1))
        p2 = stats.norm(0.0, math.sqrt(v2))
        num, _ = integrate.quad(lambda x: abs(p1.pdf(x) - p2.pdf(x)), -30, 30, limit=400)
        assert gaussian_tv(mu, v1, v2) == pytest.approx(0.5 * num, abs=1e-9)


def test_gaussian_tv_equal_laws_is_zero():
    assert gaussian_tv(0.0, 1.7, 1.7) == pytest.approx(0.0, abs=1e-12)


def _gaussian_tv_stats(mu1, v1, v2):
    """Reference: gaussian_tv with scipy.stats.norm.cdf in place of ndtr."""
    a = 0.5 / v2 - 0.5 / v1
    b = mu1 / v1
    c = -0.5 * mu1**2 / v1 - 0.5 * math.log(v1 / v2)
    if abs(a) < 1e-300:
        if b == 0.0:
            return 0.0
        roots = [-c / b]
    else:
        b2, ac4 = b * b, 4.0 * a * c
        disc = b2 - ac4
        if disc > 0 and disc >= 0.5 * max(b2, abs(ac4)):
            r = math.sqrt(disc)
            roots = sorted([(-b - r) / (2.0 * a), (-b + r) / (2.0 * a)])
        else:
            disc = (mu1**2 + (v1 - v2) * math.log(v1 / v2)) / v1 / v2
            if disc <= 0:
                return 0.0
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots = sorted([q / a, c / q])
    pts = [
        stats.norm.cdf((x - mu1) / math.sqrt(v1)) - stats.norm.cdf(x / math.sqrt(v2))
        for x in roots
    ]
    total = abs(pts[0])
    for u, v in zip(pts, pts[1:]):
        total += abs(v - u)
    total += abs(pts[-1])
    return 0.5 * total


def test_gaussian_tv_matches_norm_cdf_bit_for_bit():
    rng = np.random.default_rng(41)
    cases = [
        (0.0, 1.7, 1.7),  # equal laws: linear branch with b == 0
        (0.8, 2.0, 2.0),  # equal variances: one crossing
        (0.0, 1.0, 3.0),  # centred, two crossings either side of 0
        (0.0, 3.0, 1.0),
        (1e10, 1.0, 1e20),  # b^2 - 4ac rounds to <= 0: the recomputed discriminant
        (2.0, 1e-300, 1.0),  # extreme variances
        (0.0, 1e300, 1e-300),
        (-3.0, 1e299, 2e299),
        (1e-8, 1e-12, 1e-12),
        (40.0, 1.0, 1.0),  # both CDFs saturate
    ]
    for _ in range(2000):
        mu = rng.choice([0.0, 1.0]) * rng.normal() * 10.0 ** rng.uniform(-3, 3)
        v1 = 10.0 ** rng.uniform(-6, 6)
        v2 = v1 if rng.uniform() < 0.1 else 10.0 ** rng.uniform(-6, 6)
        cases.append((float(mu), float(v1), float(v2)))
    for mu, v1, v2 in cases:
        got, want = gaussian_tv(mu, v1, v2), _gaussian_tv_stats(mu, v1, v2)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (mu, v1, v2)


def _gaussian_tv_mpmath(mu1, v1, v2):
    """Reference: the crossing-point TV at 60 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        mu1, v1, v2 = mp.mpf(mu1), mp.mpf(v1), mp.mpf(v2)
        a = 1 / (2 * v2) - 1 / (2 * v1)
        b = mu1 / v1
        c = -mu1**2 / (2 * v1) - mp.log(v1 / v2) / 2
        r = mp.sqrt(b * b - 4 * a * c)
        pts = [mp.ncdf((x - mu1) / mp.sqrt(v1)) - mp.ncdf(x / mp.sqrt(v2))
               for x in sorted([(-b - r) / (2 * a), (-b + r) / (2 * a)])]
        return float((abs(pts[0]) + abs(pts[1] - pts[0]) + abs(pts[1])) / 2)


@pytest.mark.parametrize("mu1,v1,v2", [
    (1e10, 1.0, 1e20), (1e9, 1.0, 1e18), (-1e10, 1.0, 1e20), (1e11, 1.0, 1e22),
    (1e10, 4.0, 1e20), (3e9, 2.0, 1e19),
])
def test_gaussian_tv_when_the_discriminant_cancels(mu1, v1, v2):
    # b^2 - 4ac rounds to <= 0 here, yet the normals differ and the TV is ~1
    a, b = 0.5 / v2 - 0.5 / v1, mu1 / v1
    c = -0.5 * mu1**2 / v1 - 0.5 * math.log(v1 / v2)
    assert b * b - 4.0 * a * c <= 0
    assert gaussian_tv(mu1, v1, v2) == pytest.approx(_gaussian_tv_mpmath(mu1, v1, v2),
                                                     rel=1e-13)


@pytest.mark.parametrize("mu1,v1,v2", [(1e8, 1.0, 1e16), (1e7, 1.0, 1e14)])
def test_gaussian_tv_when_the_discriminant_cancels_in_part(mu1, v1, v2):
    # b^2 - 4ac stays positive but loses digits: the form b^2 - 4ac gave
    # 2.4e-12 relative error at (1e8, 1, 1e16)
    a, b = 0.5 / v2 - 0.5 / v1, mu1 / v1
    c = -0.5 * mu1**2 / v1 - 0.5 * math.log(v1 / v2)
    assert 0 < b * b - 4.0 * a * c < 0.5 * max(b * b, abs(4.0 * a * c))
    assert gaussian_tv(mu1, v1, v2) == pytest.approx(_gaussian_tv_mpmath(mu1, v1, v2),
                                                     rel=1e-13)


# Frozen reference: gaussian_tv as it stood, one scalar mean per call, with
# the cancelling branch's discriminant divided by v1 and then by v2.
def _gaussian_tv_scalar(mu1, v1, v2):
    a = 0.5 / v2 - 0.5 / v1
    b = mu1 / v1
    c = -0.5 * mu1**2 / v1 - 0.5 * math.log(v1 / v2)
    if abs(a) < 1e-300:
        if b == 0.0:
            return 0.0
        roots = [-c / b]
    else:
        b2, ac4 = b * b, 4.0 * a * c
        disc = b2 - ac4
        if disc > 0 and disc >= 0.5 * max(b2, abs(ac4)):
            r = math.sqrt(disc)
            roots = sorted([(-b - r) / (2.0 * a), (-b + r) / (2.0 * a)])
        else:
            disc = (mu1**2 + (v1 - v2) * math.log(v1 / v2)) / v1 / v2
            if disc <= 0:
                return 0.0
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots = sorted([q / a, c / q])

    def cdf_gap(x):
        return special.ndtr((x - mu1) / math.sqrt(v1)) - special.ndtr(x / math.sqrt(v2))

    pts = [cdf_gap(x) for x in roots]
    total = abs(pts[0])
    for u, v in zip(pts, pts[1:]):
        total += abs(v - u)
    total += abs(pts[-1])
    return 0.5 * total


def _same_bits(got, want):
    return np.array_equal(np.asarray(got, dtype=float).view(np.int64),
                          np.asarray(want, dtype=float).view(np.int64))


def _matrix_profile_variances(n, t):
    mp = MatrixParams.bru(n, n)
    v_inf = _stationary_var(mp)
    return mp, v_inf * (-math.expm1(-2.0 * mp.gamma * t)), v_inf


def test_gaussian_tv_array_matches_frozen_scalar_bit_for_bit():
    rng = np.random.default_rng(43)
    cancels = [(1e10, 1.0, 1e20), (1e9, 1.0, 1e18), (-1e10, 1.0, 1e20), (1e11, 1.0, 1e22),
               (1e10, 4.0, 1e20), (3e9, 2.0, 1e19), (1e8, 1.0, 1e16), (1e7, 1.0, 1e14),
               # b^2 - 4ac rounds to -2^24 here
               (-57995652061.47849, 0.20047735580877157, 1.8800295845264595e+23)]
    groups = [
        # regular roots
        (rng.normal(size=50) * 3.0, 1.0, 3.0),
        (rng.normal(size=50) * 1e3, 2.5, 0.4),
        # equal variances: the one-crossing branch, a zero mean giving 0
        (np.append(rng.normal(size=20), 0.0), 1.7, 1.7),
        # v1 * v2 overflows; the recomputed discriminant stays finite
        (np.array([1e150, 1e144]), 1e280, 1e300),
    ]
    # mu * mu in place of mu**2 (libm pow) changes the last bit of these
    groups += [(np.array([mu]), v1, v2) for mu, v1, v2 in [
        (8.251367813642773, 0.11238204844729406, 32.50251465301405),
        (-0.31486757465795145, 4.26712278154594, 2.553238882304535),
        (0.9305004314205105, 0.5437656336160418, 2.071015933363993)]]
    # the cancelling branches, alone and among regular means
    groups += [(np.array([mu, 0.0, 1.0, -mu]), v1, v2) for mu, v1, v2 in cancels]
    for _ in range(200):
        v1 = 10.0 ** rng.uniform(-6, 6)
        v2 = v1 if rng.uniform() < 0.1 else 10.0 ** rng.uniform(-6, 6)
        groups.append((rng.normal(size=8) * 10.0 ** rng.uniform(-3, 10), v1, v2))
    # the matrix profile's (v_t, v_inf), one call per grid time
    for n in (16, 64, 128):
        for t in np.linspace(0.02, 3.0, 25):
            mp, v_t, v_inf = _matrix_profile_variances(n, t)
            x = rng.gamma(2.0, size=n)
            means = np.concatenate(([0.0], np.sqrt(n * x) * math.exp(-mp.gamma * t)))
            groups.append((means, v_t, v_inf))
    # scale-equivalent to (1e10, 1, 1e20), though v1 * v2 overflows
    assert gaussian_tv(1e150, 1e280, 1e300) == 0.9999999996611302
    assert gaussian_tv(1e150, 1e280, 1e300) == gaussian_tv(1e10, 1.0, 1e20)
    for means, v1, v2 in groups:
        want = [_gaussian_tv_scalar(float(mu), v1, v2) for mu in means]
        assert _same_bits(gaussian_tv(means, v1, v2), want), (v1, v2)
        assert _same_bits([gaussian_tv(float(mu), v1, v2) for mu in means], want)


def test_gaussian_tv_keeps_the_shape_of_its_means():
    got = gaussian_tv(1.0, 1.0, 2.0)
    assert type(got) is float
    means = np.arange(6.0).reshape(2, 3)
    tvs = gaussian_tv(means, 1.0, 2.0)
    assert tvs.shape == (2, 3)
    assert tvs[1, 2] == gaussian_tv(5.0, 1.0, 2.0)


def test_matrix_entry_tv_sum_matches_frozen_scalar_sum():
    from dyson_laguerre.cutoff import _matrix_entry_tv_sum

    rng = np.random.default_rng(44)
    for n in (16, 64, 128):
        x = rng.gamma(2.0, size=n)
        for t in (0.1, 0.5, 1.3):
            mp, v_t, v_inf = _matrix_profile_variances(n, t)
            decay = math.exp(-mp.gamma * t)
            want = (mp.n * mp.m - mp.n) * _gaussian_tv_scalar(0.0, v_t, v_inf)
            for xi in x:
                want += _gaussian_tv_scalar(math.sqrt(mp.m * xi) * decay, v_t, v_inf)
            assert _same_bits(_matrix_entry_tv_sum(x, mp, t), want)


@pytest.mark.parametrize("mu1,v1,v2", [
    (0.0, math.nan, 1.0), (1.0, math.inf, 1.0), (math.nan, 1.0, 2.0), (1.0, 1.0, -math.inf),
    (np.array([0.5, math.inf]), 1.0, 2.0),
])
def test_gaussian_tv_rejects_non_finite_input(mu1, v1, v2):
    with pytest.raises(DomainError):
        gaussian_tv(mu1, v1, v2)


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats is the slowest scipy submodule to import; the package has
    # no use for it, and set-up time pays for every import
    src = os.path.dirname(os.path.dirname(os.path.abspath(dyson_laguerre.__file__)))
    code = "import sys, dyson_laguerre; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.stdout.strip() == "False"


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fresh_interpreter(code, *args):
    """Standard output of code run in a new interpreter on the package sources."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dyson_laguerre.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return done.stdout


def test_package_import_and_config_parsing_load_no_scipy():
    # set-up pays for every import: scipy functions are bound on first use
    code = (
        "import sys, dyson_laguerre\n"
        "from dyson_laguerre import cli\n"
        "for path in sys.argv[1:]:\n"
        "    cli.parse_config(open(path).read())\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    configs = [os.path.join(REPO_ROOT, "configs", name)
               for name in ("profile_sde.cfg", "profile_matrix.cfg")]
    assert _fresh_interpreter(code, *configs).strip() == "[]"


def test_modes_without_exact_assignment_leave_scipy_optimize_unloaded(tmp_path):
    code = (
        "import sys\n"
        "from dyson_laguerre import cli\n"
        "for k, text in enumerate(sys.argv[2:]):\n"
        "    config = cli.parse_config(text)\n"
        "    config['out_dir'] = f'{sys.argv[1]}/{k}'\n"
        "    cli.run(config)\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    texts = [
        "mode = simulate\nn = 3\nm = 5\ntimes = 0.1, 0.5\nreplicas = 6\nseed = 4\n",
        "mode = check-cd\nn = 3\nalpha = 3.0\nbeta = 1.0\nreplicas = 20\nseed = 4\n",
        "mode = couple\nn = 2\nalpha = 3.0\nbeta = 1.0\nx0_preset = ramp\n"
        "times = 0, 0.2\nreplicas = 3\nseed = 0\n",
    ]
    assert _fresh_interpreter(code, str(tmp_path), *texts).strip() == "False"


def test_couple_loads_no_scipy(tmp_path):
    # both couplings of the couple mode, the exact reflection pairs (alpha = 3,
    # m = 4; and without alpha, n = m = 2) and the Euler mirror pairs
    # (alpha = 3.25), load no scipy module at all
    code = (
        "import sys, json\n"
        "from dyson_laguerre import cli\n"
        "kinds = []\n"
        "for k, text in enumerate(sys.argv[2:]):\n"
        "    config = cli.parse_config(text)\n"
        "    config['out_dir'] = f'{sys.argv[1]}/{k}'\n"
        "    cli.run(config)\n"
        "    with open(f'{sys.argv[1]}/{k}/coupling_summary.json') as fh:\n"
        "        kinds.append(json.load(fh)['coupling'])\n"
        "print(kinds, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    texts = [
        f"mode = couple\nn = 2\n{model}x0_preset = ramp\ntimes = 0, 0.2\nreplicas = 3\n"
        for model in ("alpha = 3.0\n", "m = 2\n", "alpha = 3.25\n")
    ]
    out = _fresh_interpreter(code, str(tmp_path), *texts).strip()
    assert out == "['reflection', 'reflection', 'mirror'] []"


def test_assignment_solver_is_a_module_attribute_once_bound(monkeypatch):
    # per-layer tracing wraps the module global that holds the solver, so
    # exact assignment must look it up there at call time
    import scipy.optimize

    solver = scipy.optimize.linear_sum_assignment
    assert transport.linear_sum_assignment is solver
    assert vars(transport)["linear_sum_assignment"] is solver
    with pytest.raises(AttributeError):
        transport.no_such_function
    calls = []

    def counting(cost):
        calls.append(cost.shape)
        return solver(cost)

    monkeypatch.setattr(transport, "linear_sum_assignment", counting)
    # no row and no column of the cost matrix is tied, so the solver runs
    a = np.array([[0.5, 1.0], [1.0, 3.0], [2.0, 2.5]])
    b = np.array([[0.2, 0.4], [1.5, 2.0], [0.7, 3.5]])
    wasserstein_intrinsic(a, b)
    assert calls == [(3, 3)]


def _whole_tensor_cost(a, b):
    diff = 2.0 * np.sqrt(a.atoms)[:, None, :] - 2.0 * np.sqrt(b.atoms)[None, :, :]
    return np.sqrt(np.sum(diff**2, axis=2))


def _sorted_clouds(ra, rb, n):
    rng = np.random.default_rng(ra + rb + n)
    return (EmpiricalMeasure(np.sort(rng.gamma(3.0, 1.0, (ra, n)), axis=1)),
            EmpiricalMeasure(np.sort(rng.gamma(3.0, 1.0, (rb, n)), axis=1)))


@pytest.mark.parametrize("ra,rb,n,several", [
    (160, 160, 8, False), (520, 520, 8, True), (1100, 300, 8, True), (3, 2, 0, False),
    # each branch of numpy's pairwise sum and its edges: left to right below
    # 8 terms, eight accumulators up to 128, halves above
    (7, 5, 1, False), (9, 12, 2, False), (30, 20, 4, False), (1100, 1000, 4, True),
    (20, 31, 7, False), (40, 30, 8, False), (25, 18, 9, False), (600, 400, 9, True),
    (33, 21, 15, False), (21, 33, 16, False), (600, 400, 17, True), (40, 25, 64, False),
    (25, 40, 127, False), (30, 20, 128, False), (20, 30, 129, False), (17, 23, 200, False),
    (23, 17, 300, False),
])
def test_intrinsic_cost_in_row_blocks_matches_the_whole_tensor(ra, rb, n, several):
    # the coordinate-wise passes give the bits of the tensor's axis-2 sum
    assert (ra > transport._block_rows(rb, n)) == several
    a, b = _sorted_clouds(ra, rb, n)
    got = transport._intrinsic_cost(a, b)
    assert got.tobytes() == _whole_tensor_cost(a, b).tobytes()


@pytest.mark.parametrize("ra,rb,n", [(37, 29, 129), (41, 23, 200), (29, 37, 300)])
def test_intrinsic_cost_in_small_row_blocks_above_the_pairwise_block(monkeypatch, ra, rb, n):
    # halves recurse inside each block; a block size that does not divide
    # the rows leaves a short last block
    monkeypatch.setattr(transport, "_COST_BLOCK", 4096)
    step = transport._block_rows(rb, n)
    assert 1 < step < ra and ra % step
    a, b = _sorted_clouds(ra, rb, n)
    got = transport._intrinsic_cost(a, b)
    assert got.tobytes() == _whole_tensor_cost(a, b).tobytes()


@pytest.mark.parametrize("order", [1, 2])
def test_point_mass_needs_no_assignment(monkeypatch, order):
    # every bijection is optimal from a point mass, on either side: the
    # value is the solver's up to summation order, and no solver runs
    import scipy.optimize

    rng = np.random.default_rng(33)
    cloud = np.sort(rng.gamma(3.0, 1.0, (160, 4)), axis=1)
    point = np.tile([0.3, 0.9, 1.4, 5.0], (160, 1))
    solver = scipy.optimize.linear_sum_assignment
    calls = []
    monkeypatch.setattr(transport, "linear_sum_assignment",
                        lambda cost: calls.append(cost.shape) or solver(cost))
    for a, b in ((point, cloud), (cloud, point)):
        cost_pow = transport._intrinsic_cost(EmpiricalMeasure(a), EmpiricalMeasure(b)) ** order
        rows, cols = solver(cost_pow)
        want = float(np.mean(cost_pow[rows, cols])) ** (1.0 / order)
        assert wasserstein_intrinsic(a, b, order=order).value == pytest.approx(want, rel=1e-12)
    assert calls == []


def test_clouds_off_the_chamber_are_refused():
    # descending atoms are no states: the message is that of check_states
    with pytest.raises(DomainError, match="state coordinates must be in ascending order"):
        wasserstein_intrinsic([[2.0, 1.0]] * 3, [[1.0, 2.0]] * 3)
    with pytest.raises(DomainError, match="ascending order"):
        EmpiricalMeasure(np.array([[0.1, 0.4], [0.9, 0.5]]))
    # ties pass, and a 1-D input is a cloud of one-coordinate atoms
    assert EmpiricalMeasure([[1.0, 1.0]]).atoms.shape == (1, 2)
    assert EmpiricalMeasure([3.0, 1.0]).atoms.shape == (2, 1)


def test_assignment_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = np.sort(rng.gamma(3.0, 1.0, (5, 3)), axis=1)
        b = np.sort(rng.gamma(3.0, 1.0, (5, 3)), axis=1)
        est = wasserstein_intrinsic(a, b, order=2)
        # brute force over all 5! matchings under the same metric
        cost = np.zeros((5, 5))
        for i in range(5):
            for j in range(5):
                cost[i, j] = 2.0 * np.linalg.norm(np.sqrt(a[i]) - np.sqrt(b[j]))
        best = min(
            np.mean([cost[i, p[i]] ** 2 for i in range(5)])
            for p in itertools.permutations(range(5))
        )
        assert est.value == pytest.approx(math.sqrt(best), abs=1e-12)
        assert est.method == "assignment"


def test_wasserstein_identical_clouds_zero():
    a = np.array([[1.0, 2.0], [2.0, 3.0]])
    est = wasserstein_intrinsic(a, a.copy(), order=1)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_wasserstein_guards():
    a = np.ones((3, 2))
    b = np.ones((4, 2))
    with pytest.raises(SizeMismatch):
        wasserstein_intrinsic(a, b)
    with pytest.raises(SizeMismatch):
        wasserstein_intrinsic(np.ones((3, 2)), np.ones((3, 3)))
    with pytest.raises(DomainError):
        wasserstein_intrinsic(a, np.ones((3, 2)), order=3)


def test_tv_witness_same_law_small():
    rng = np.random.default_rng(23)
    a = rng.standard_normal(4000)
    b = rng.standard_normal(4000)
    est = tv_threshold_witness(a, b)
    assert est.value < est.stderr  # no real separation


def test_tv_witness_disjoint_supports():
    est = tv_threshold_witness(np.zeros(100), np.ones(100))
    assert est.value == pytest.approx(1.0)


def test_tv_witness_known_gaussian_shift():
    # empirical CDF gap converges to the exact TV of a mean shift
    rng = np.random.default_rng(24)
    mu = 1.2
    a = rng.standard_normal(20_000) + mu
    b = rng.standard_normal(20_000)
    est = tv_threshold_witness(a, b)
    exact = gaussian_tv(mu, 1.0, 1.0)
    assert abs(est.value - exact) < est.stderr
    with pytest.raises(EmptySample):
        tv_threshold_witness(np.array([]), b)


def test_kl_knn_on_matching_reference():
    rng = np.random.default_rng(25)
    a = 3.0
    samples = rng.standard_gamma(a, 5000)
    est = kl_projected_estimate(
        samples,
        lambda x: (a - 1.0) * np.log(x) - x,
        math.gamma(a),
    )
    # true KL is zero; allow knn bias plus three stderr
    assert abs(est.value) < 0.05 + 3 * est.stderr


def test_kl_knn_detects_mismatch():
    # samples Gamma(a), reference Gamma(b): closed-form divergence
    rng = np.random.default_rng(26)
    a, b = 3.0, 4.5
    samples = rng.standard_gamma(a, 5000)
    est = kl_projected_estimate(
        samples,
        lambda x: (b - 1.0) * np.log(x) - x,
        math.gamma(b),
    )
    exact = (
        math.lgamma(b)
        - math.lgamma(a)
        + (a - b) * special.digamma(a)
    )
    assert abs(est.value - exact) < 0.05 + 3 * est.stderr


def _knn_walk(srt, k):
    """Reference: walk outward from each sorted sample, k steps, always
    taking the nearer side (left on ties)."""
    n = srt.size
    out = np.empty(n)
    for i in range(n):
        lo, hi = i, i
        d = 0.0
        for _ in range(k):
            dl = srt[i] - srt[lo - 1] if lo > 0 else math.inf
            dr = srt[hi + 1] - srt[i] if hi < n - 1 else math.inf
            if dl <= dr:
                lo -= 1
                d = dl
            else:
                hi += 1
                d = dr
        out[i] = d
    return out


def test_knn_distances_match_walk():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        k = int(rng.integers(1, n))
        # rounded draws give ties, including runs longer than k
        ties = np.sort(np.round(rng.normal(size=n) * rng.choice([1.0, 3.0, 100.0])))
        spread = np.sort(rng.gamma(2.0, size=n) * 1e3)
        for srt in (ties, spread):
            assert np.array_equal(_knn_distances(srt, k), _knn_walk(srt, k))
    # edge sizes: n = k + 2 (smallest sample the estimator takes) and k >= n - 1
    for k in (1, 3, 5):
        srt = np.sort(rng.normal(size=k + 2))
        assert np.array_equal(_knn_distances(srt, k), _knn_walk(srt, k))
    for n in (2, 3, 6):
        srt = np.sort(rng.normal(size=n))
        assert np.array_equal(_knn_distances(srt, n - 1), _knn_walk(srt, n - 1))
        srt = np.zeros(n)
        assert np.array_equal(_knn_distances(srt, n - 1), _knn_walk(srt, n - 1))


def test_kl_reference_normalizer_guard():
    with pytest.raises(UnnormalizedReference):
        kl_projected_estimate(np.ones(100), lambda x: -x, math.inf)
    with pytest.raises(UnnormalizedReference):
        kl_projected_estimate(np.ones(100), lambda x: -x, 0.0)
    with pytest.raises(EmptySample):
        kl_projected_estimate(np.array([1.0, 2.0]), lambda x: -x, 1.0)


def test_kl_reference_density_must_be_elementwise():
    # a density written for one value at a time collapses the sample array
    # to one number; the estimate refuses it instead of looping over samples
    with pytest.raises(DomainError):
        kl_projected_estimate(np.arange(1.0, 101.0), lambda x: float(-np.sum(x)), 1.0)


# Frozen reference: kl_projected_estimate as it stood, one block at a time.
def _kl_projected_estimate_per_block(samples, reference_log_density, reference_normalizer,
                                     k=3):
    s = np.asarray(samples, dtype=float).reshape(-1)
    log_z = math.log(reference_normalizer)

    def _estimate(block):
        n = block.size
        srt = np.sort(block)
        kk = min(k, n - 1)
        left = np.maximum(_knn_distances(srt, kk), 1e-300)
        entropy = float(np.mean(np.log(2.0 * left))) + special.digamma(n) - special.digamma(kk)
        logq = np.asarray(reference_log_density(srt), dtype=float)
        cross = -float(np.mean(logq)) + log_z
        return -entropy + cross

    value = _estimate(s)
    n_batches = 10
    if s.size >= 20 * n_batches and math.isfinite(value):
        perm = np.random.default_rng(0).permutation(s.size)
        parts = np.array_split(s[perm], n_batches)
        vals = [_estimate(p) for p in parts]
        stderr = float(np.std(vals, ddof=1) / math.sqrt(n_batches))
    else:
        stderr = float("nan")
    return value, stderr


def _gamma_logpdf(shape):
    return lambda x: np.where(x > 0, (shape - 1.0) * np.log(np.maximum(x, 1e-300)) - x, -np.inf)


@pytest.mark.parametrize("size", [199, 200, 1000, 1003, 4000])
def test_kl_batches_match_frozen_per_block_estimate(size):
    rng = np.random.default_rng(size)
    for shape in (16.0, 64.0, 128.0):
        samples = rng.standard_gamma(shape * rng.uniform(0.8, 1.2), size)
        for logq in (_gamma_logpdf(shape), lambda x: -0.5 * (x - shape) ** 2):
            est = kl_projected_estimate(samples, logq, math.gamma(shape))
            want = _kl_projected_estimate_per_block(samples, logq, math.gamma(shape))
            assert type(est.value) is float
            assert _same_bits(est.value, want[0]) and _same_bits(est.stderr, want[1])
            assert math.isnan(est.stderr) == (size < 200)


def test_kl_infinite_estimate_matches_frozen_per_block_estimate():
    # a sample that sits on a zero of the reference: the estimate is inf,
    # and no batch stderr is computed
    samples = np.concatenate([np.random.default_rng(5).standard_gamma(3.0, 999), [-1.0]])
    est = kl_projected_estimate(samples, _gamma_logpdf(3.0), 2.0)
    value, stderr = _kl_projected_estimate_per_block(samples, _gamma_logpdf(3.0), 2.0)
    assert est.value == value == math.inf
    assert math.isnan(est.stderr) and math.isnan(stderr)


def test_kl_calls_the_density_once_per_block_size():
    seen = []

    def logq(x):
        seen.append(x.shape)
        return -x

    kl_projected_estimate(np.random.default_rng(6).normal(size=1003), logq, 1.0)
    # the full sample, then the three blocks of 101 and the seven of 100
    assert seen == [(1003,), (303,), (700,)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kl_rejects_non_finite_samples(bad):
    samples = np.random.default_rng(7).standard_gamma(3.0, 500)
    samples[17] = bad
    with pytest.raises(DomainError):
        kl_projected_estimate(samples, _gamma_logpdf(3.0), 2.0)


def test_tv_witness_rejects_non_finite_samples():
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=300), rng.normal(size=300)
    a[5] = math.nan
    with pytest.raises(DomainError):
        tv_threshold_witness(a, b)
    with pytest.raises(DomainError):
        tv_threshold_witness(b, np.append(b, math.inf))
