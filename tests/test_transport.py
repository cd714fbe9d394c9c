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
    EmpiricalMeasure,
    MatrixParams,
    SizeMismatch,
    ValidationError,
    mixing_time_ou,
    ou_closed_form_distances,
    wasserstein_intrinsic,
    zero_start_chi2,
    zero_start_kl,
)
from dyson_laguerre import transport
from dyson_laguerre.transport import gaussian_tv


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


@pytest.mark.parametrize("n", [8, 128])
@pytest.mark.parametrize("z0_norm_sq", [0.0, 3.0])
def test_ou_kl_matches_mpmath_to_rounding(n, z0_norm_sq):
    # -nm e2 - nm log(1 - e2) cancels as e2 = e^{-2gt} shrinks; the series
    # keeps the KL at its rounding, and from z0 = 0 it is zero_start_kl's bits
    import mpmath

    p = MatrixParams.bru(n, n)
    for t in np.linspace(0.5, 14.0, 28):
        got = ou_closed_form_distances(p, t, z0_norm_sq)["KL"].value
        with mpmath.workdps(40):
            e2 = mpmath.exp(-2 * mpmath.mpf(p.gamma) * mpmath.mpf(float(t)))
            want = float(0.5 * ((2 * p.gamma / p.kappa**2) * z0_norm_sq * e2
                                + n * n * (-e2 - mpmath.log1p(-e2))))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), t
        if z0_norm_sq == 0.0:
            assert got == zero_start_kl(n * n / 2.0, 2.0 * p.gamma * t)


@pytest.mark.parametrize("t", [1e-17, 1e-300])
def test_ou_closed_forms_where_e_to_the_minus_4gt_rounds_to_1(t):
    # 1 - e^{-4gt} rounds to 0 here; from z0 = 0 the KL and L2 are those of
    # c * Gamma(nm/2) against Gamma(nm/2) at time 2gt, to the bit
    p = MatrixParams.bru(4, 4)
    got = ou_closed_form_distances(p, t, 0.0)
    assert got["KL"].value == zero_start_kl(8.0, 2.0 * p.gamma * t)
    assert got["L2"].value == math.sqrt(zero_start_chi2(8.0, 2.0 * p.gamma * t))
    assert 0.0 < got["W2"].value < math.inf
    assert ou_closed_form_distances(p, t, 3.0)["L2"].value >= got["L2"].value


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
        "print([m in sys.modules for m in ('scipy.optimize', 'scipy.stats', 'scipy.integrate')])\n"
    )
    texts = [
        "mode = simulate\nn = 3\nm = 5\ntimes = 0.1, 0.5\nreplicas = 6\nseed = 4\n",
        # the exact law of phi from a ramp start needs scipy.special only
        "mode = cutoff-profile\nn = 3, 4\nalpha = 6.0\nbeta = 2.0\nx0_preset = ramp\n"
        "times = 0.5, 1.0\ndistances = TV, KL, L2\n",
        "mode = check-cd\nn = 3\nalpha = 3.0\nbeta = 1.0\nreplicas = 20\nseed = 4\n",
        "mode = couple\nn = 2\nalpha = 3.0\nbeta = 1.0\nx0_preset = ramp\n"
        "times = 0, 0.2\nreplicas = 3\nseed = 0\n",
    ]
    assert _fresh_interpreter(code, str(tmp_path), *texts).strip() == "[False, False, False]"


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


def _left_to_right_cost(a, b):
    ua, ub = 2.0 * np.sqrt(a.atoms), 2.0 * np.sqrt(b.atoms)
    total = np.zeros((ua.shape[0], ub.shape[0]))
    for k in range(ua.shape[1]):
        total = total + (ua[:, k, None] - ub[None, :, k]) ** 2
    return np.sqrt(total)


def _sorted_clouds(ra, rb, n):
    rng = np.random.default_rng(ra + rb + n)
    return (EmpiricalMeasure(np.sort(rng.gamma(3.0, 1.0, (ra, n)), axis=1)),
            EmpiricalMeasure(np.sort(rng.gamma(3.0, 1.0, (rb, n)), axis=1)))


def _check_cost(a, b, got):
    """got adds the coordinates left to right, to the bit; it has the bits
    of the whole tensor's axis-2 sum below 8 coordinates, where numpy's
    pairwise sum adds left to right too, and agrees with it to rounding
    above."""
    want = _whole_tensor_cost(a, b)
    assert got.tobytes() == _left_to_right_cost(a, b).tobytes()
    if a.atoms.shape[1] < 8:
        assert got.tobytes() == want.tobytes()
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("ra,rb,n,several", [
    (160, 160, 8, False), (520, 520, 8, False), (1100, 300, 8, False), (3, 2, 0, False),
    # numpy's pairwise sum adds left to right below 8 terms, with eight
    # accumulators up to 128, and in halves above
    (7, 5, 1, False), (9, 12, 2, False), (30, 20, 4, False), (1100, 1000, 4, True),
    (20, 31, 7, False), (40, 30, 8, False), (25, 18, 9, False), (600, 400, 9, False),
    (1100, 1000, 9, True), (33, 21, 15, False), (21, 33, 16, False), (600, 400, 17, False),
    (40, 25, 64, False), (25, 40, 127, False), (30, 20, 128, False), (20, 30, 129, False),
    (17, 23, 200, False), (23, 17, 300, False),
])
def test_intrinsic_cost_in_row_blocks_matches_the_whole_tensor(ra, rb, n, several):
    assert (ra > transport._block_rows(rb)) == several
    a, b = _sorted_clouds(ra, rb, n)
    _check_cost(a, b, transport._intrinsic_cost(a, b))


def test_intrinsic_cost_adds_coordinates_left_to_right_at_every_n():
    for n in range(301):
        a, b = _sorted_clouds(11, 7, n)
        _check_cost(a, b, transport._intrinsic_cost(a, b))


@pytest.mark.parametrize("ra,rb,n", [(37, 29, 129), (41, 23, 200), (29, 37, 300)])
def test_intrinsic_cost_in_small_row_blocks_above_the_pairwise_block(monkeypatch, ra, rb, n):
    # n above numpy's pairwise block of 128 terms, where the tensor sum
    # splits in halves; a block size that does not divide the rows leaves
    # a short last block
    monkeypatch.setattr(transport, "_COST_BLOCK", 512)
    step = transport._block_rows(rb)
    assert 1 < step < ra and ra % step
    a, b = _sorted_clouds(ra, rb, n)
    _check_cost(a, b, transport._intrinsic_cost(a, b))


def test_intrinsic_cost_holds_one_scratch_block(monkeypatch):
    # beyond the output, a build holds one (rows, rb) scratch array, and
    # small temporaries: numpy's ufunc buffers and the (n, r) square roots
    import tracemalloc

    ra, rb, n, rows = 700, 500, 9, 300
    monkeypatch.setattr(transport, "_COST_BLOCK", 2 * rows * rb)
    assert transport._block_rows(rb) == rows
    a, b = _sorted_clouds(ra, rb, n)
    transport._intrinsic_cost(a, b)
    tracemalloc.start()
    try:
        cost = transport._intrinsic_cost(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 8 * rows * rb
    assert block <= peak - cost.nbytes <= 1.5 * block


def _plain_value(cost_pow, order):
    """Scipy's solver on the unreduced matrix, the value read in row order."""
    import scipy.optimize

    rows, cols = scipy.optimize.linear_sum_assignment(cost_pow)
    return float(np.mean(cost_pow[rows, cols])) ** (1.0 / order)


def _plain_wasserstein(a, b, order):
    cost = transport._intrinsic_cost(EmpiricalMeasure(a), EmpiricalMeasure(b))
    return _plain_value(cost**order, order)


def _moved_clouds(r, n, kind):
    """Two clouds of r atoms in n coordinates whose means and spreads
    differ: the second is a draw of the first's law, shifted or scaled."""
    rng = np.random.default_rng(100 * r + n)
    a = np.sort(rng.gamma(3.0, 1.0, (r, n)), axis=1)
    b = np.sort(rng.gamma(3.0, 1.0, (r, n)), axis=1)
    return a, (b + 4.0 if kind == "shifted" else 5.0 * b)


@pytest.mark.parametrize("kind", ["shifted", "scaled"])
@pytest.mark.parametrize("r", [2, 3, 40, 160, 600])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_warm_start_keeps_the_plain_solvers_value(n, r, kind):
    # reducing the matrix by the potentials moves every bijection's total by
    # one constant, so the solver returns the assignment it returns
    # unreduced, and the value read off the unreduced matrix has its bits.
    # Order 1 on one coordinate is the exception: there W1 has many optimal
    # assignments (any two that cross no gap the same way), a tie
    a, b = _moved_clouds(r, n, kind)
    for order in (1, 2):
        got = wasserstein_intrinsic(a, b, order=order).value
        want = _plain_wasserstein(a, b, order)
        if n == 1 and order == 1:
            assert got == pytest.approx(want, rel=1e-12)
        else:
            assert got == want


@pytest.mark.parametrize("order", [1, 2])
def test_warm_start_with_duplicated_atoms_agrees_to_rounding(order):
    # duplicated atoms tie assignments: the solver may swap their columns,
    # which sums the same costs in another order
    rng = np.random.default_rng(41)
    for n, r in ((1, 60), (4, 160), (8, 300)):
        a = np.sort(rng.gamma(3.0, 1.0, (r // 3, n)), axis=1)[np.arange(r) % (r // 3)]
        b = 2.0 * np.sort(rng.gamma(3.0, 1.0, (r, n)), axis=1)
        for x, y in ((a, b), (b, a), (a, a[::-1] + 0.5)):
            got = wasserstein_intrinsic(x, y, order=order).value
            assert got == pytest.approx(_plain_wasserstein(x, y, order), rel=1e-12)


def test_warm_start_with_a_constant_coordinate_and_few_atoms():
    # a coordinate that does not vary over a cloud has spread 0: its scale
    # is 1 on the first side and 0 on the second, and the potential stays
    # finite; so it does for clouds of fewer atoms than coordinates
    rng = np.random.default_rng(42)
    for r, n in ((2, 4), (3, 8), (5, 16), (40, 4), (160, 8)):
        a = np.sort(rng.gamma(3.0, 1.0, (r, n)), axis=1) + 1.0
        b = 3.0 * np.sort(rng.gamma(3.0, 1.0, (r, n)), axis=1) + 1.0
        a[:, 0] = 0.5
        for x, y in ((a, b), (b, a)):
            phi = transport._row_potential(EmpiricalMeasure(x), EmpiricalMeasure(y))
            assert phi.shape == (r,) and np.all(np.isfinite(phi))
            for order in (1, 2):
                assert (wasserstein_intrinsic(x, y, order=order).value
                        == _plain_wasserstein(x, y, order))
    one = EmpiricalMeasure(np.array([[0.5, 1.0, 4.0]]))
    assert transport._row_potential(one, one).tolist() == [0.0]


@pytest.mark.parametrize("r", [100, 160, 163, 600])
def test_block_values_keep_the_plain_solvers_values(r):
    # each diagonal block is warm-started from the full clouds' potential
    # restricted to its rows, and keeps the bits of a plain solve on it
    a, b = _moved_clouds(r, 4, "scaled")
    value, blocks = transport._w2_with_blocks(a, b, 4)
    cost_sq = transport._intrinsic_cost(EmpiricalMeasure(a), EmpiricalMeasure(b)) ** 2
    assert value == _plain_value(cost_sq, 2)
    parts = np.array_split(np.arange(r), 4)
    assert blocks == [_plain_value(cost_sq[np.ix_(p, p)], 2) for p in parts]


def test_an_assignment_holds_two_cost_sized_arrays():
    # the squared cost matrix, squared in place, and the solver's reduced
    # copy of it; a third r x r array of doubles would pass the bound.  The
    # lower bound shows that tracemalloc sees numpy's buffers
    import tracemalloc

    r = 1500
    a, b = _moved_clouds(r, 4, "scaled")
    wasserstein_intrinsic(a[:10], b[:10])
    tracemalloc.start()
    try:
        wasserstein_intrinsic(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = 8 * r * r
    assert matrix <= peak < 2.5 * matrix


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


