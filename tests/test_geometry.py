import json
import math

import numpy as np
import pytest

from dyson_laguerre import (
    DomainError,
    ModelParams,
    Polynomial,
    SizeMismatch,
    carre_du_champ,
    carre_du_champ2,
    cd_certificate,
    edl_gamma2,
    gamma2_definitional,
    gamma2_explicit,
    geodesic_point,
    phi_polynomial,
    riemannian_distance,
)
from dyson_laguerre.errors import NumericError
from dyson_laguerre.geometry import (
    SPOT_CHECKS,
    curvature_matrices,
    random_ordered_states,
    random_test_function,
)
from dyson_laguerre.simulate import RngStream


def _phi(n):
    f = Polynomial.zero(n)
    for i in range(n):
        f = f + Polynomial.coordinate(n, i)
    return f


def test_distance_hand_values():
    # d(x, y) = 2||sqrt x - sqrt y||
    assert riemannian_distance([1.0], [4.0]) == pytest.approx(2.0)
    assert riemannian_distance([0.0, 1.0], [0.0, 4.0]) == pytest.approx(2.0)
    assert riemannian_distance([1.0, 4.0], [1.0, 4.0]) == 0.0
    with pytest.raises(SizeMismatch):
        riemannian_distance([1.0], [1.0, 2.0])


def test_geodesic_endpoints_and_speed():
    x = np.array([0.5, 2.0, 5.0])
    y = np.array([1.0, 3.0, 4.0])
    assert np.allclose(geodesic_point(x, y, 0.0), x, atol=1e-15)
    assert np.allclose(geodesic_point(x, y, 1.0), y, atol=1e-15)
    # constant speed: distance from x to gamma(t) is t * d(x, y)
    d = riemannian_distance(x, y)
    for t in (0.25, 0.5, 0.75):
        mid = geodesic_point(x, y, t)
        assert riemannian_distance(x, mid) == pytest.approx(t * d, abs=1e-12)
    with pytest.raises(DomainError):
        geodesic_point(x, y, 1.5)


def test_carre_du_champ_phi():
    # Gamma(phi) = sum_i x_i
    n = 4
    f = _phi(n)
    x = np.array([0.5, 1.0, 2.0, 3.0])
    assert carre_du_champ(f, x) == pytest.approx(x.sum())
    g = Polynomial.coordinate(n, 0)
    assert carre_du_champ2(f, g, x) == pytest.approx(x[0])


def test_gamma2_of_phi_closed_form():
    # Gamma_2(phi) = (alpha n)/2 + phi/2, from the eigenfunction relation
    params = ModelParams(4, 6.0, 2.0)
    f = _phi(4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        state = random_ordered_states(params, rng, 1)[0]
        want = 0.5 * params.alpha * params.n + 0.5 * state.sum()
        assert gamma2_explicit(f, state, params) == pytest.approx(want, rel=1e-12)
        assert gamma2_definitional(f, state, params) == pytest.approx(want, rel=1e-9)


def test_gamma2_explicit_matches_definitional():
    # the closed form against the raw definition through the generator
    rng = np.random.default_rng(5)
    for n, beta in [(2, 1.0), (3, 2.0), (4, 4.0)]:
        params = ModelParams(n, 2.0 + (n - 1) * beta / 2.0, beta)
        for _ in range(25):
            state = random_ordered_states(params, rng, 1, min_gap=1e-3)[0]
            f = random_test_function(n, rng, degree=2)
            a = gamma2_explicit(f, state, params)
            b = gamma2_definitional(f, state, params)
            scale = max(1.0, abs(a), abs(b))
            assert abs(a - b) <= 1e-9 * scale


def test_gamma2_single_particle_hand_case():
    # n = 1, f(x) = x^2: Gamma_2 = delta/2*(2x)^2 + x/2*(2x)^2 + x^2*4 + x*2x*2
    params = ModelParams(1, 2.0, 0.0)
    f = Polynomial.coordinate(1, 0) * Polynomial.coordinate(1, 0)
    x = 1.7
    want = 0.5 * 2.0 * 4 * x**2 + 0.5 * 4 * x**3 + 4 * x**2 + 4 * x**2
    got = gamma2_explicit(f, np.array([x]), params)
    assert got == pytest.approx(want, rel=1e-12)


def test_edl_gamma2_single_particle_hand_case():
    # n = 1, f(y) = y: ||Hess||^2 = 0, so Gamma_2 = 1/2 + (2 delta - 1)/y^2
    params = ModelParams(1, 2.5, 0.0)
    f = Polynomial.coordinate(1, 0)
    y = 1.3
    want = 0.5 + (2 * 2.5 - 1.0) / y**2
    assert edl_gamma2(f, np.array([y]), params) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_edl_gamma2_refuses_non_finite_coordinates(bad):
    # a NaN passes a y <= 0 test; the finiteness check comes first
    params = ModelParams(2, 3.0, 1.0)
    with pytest.raises(DomainError, match="y coordinates must be finite"):
        edl_gamma2(phi_polynomial(params), [bad, 2.0], params)


def test_edl_gamma2_dominates_half_gamma():
    # additive-noise curvature: Gamma_2 >= 1/2 |grad f|^2 holds pointwise
    rng = np.random.default_rng(7)
    params = ModelParams(3, 5.0, 2.0)
    for _ in range(50):
        state = random_ordered_states(params, rng, 1, min_gap=1e-3)[0]
        y = 2.0 * np.sqrt(state)
        f = random_test_function(3, rng, degree=2)
        g2 = edl_gamma2(f, y, params)
        gam = float(np.sum(f.gradient(y) ** 2))
        assert g2 >= 0.5 * gam - 1e-10 * max(1.0, abs(g2))


def test_cd_certificate_reports_clean_gap():
    params = ModelParams(3, 4.0, 2.0)
    report = cd_certificate(params, 0.5, 200, RngStream(11, 0))
    assert report.samples == 200
    assert not report.violated()
    assert report.min_gap >= -1e-8 * report.scale
    assert "state" in report.worst_case
    payload = report.to_json()
    assert '"rho": 0.5' in payload


def test_cd_certificate_detects_false_bound():
    # an absurdly large rho must be reported violated
    params = ModelParams(3, 4.0, 2.0)
    report = cd_certificate(params, 1e6, 200, RngStream(12, 0))
    assert report.violated()


def test_cd_certificate_detects_weak_regime():
    # delta < 1/2 makes the diagonal (2 delta - 1)/(4 x_i) of the curvature
    # matrix unbounded below as a particle nears 0, so rho = 1/2 fails
    params = ModelParams(3, 1.2, 1.0, allow_weak=True)
    assert params.delta < 0.5
    report = cd_certificate(params, 0.5, 300, RngStream(14, 0))
    assert report.violated()
    assert report.rho_star < 0.5


def _curvature_matrix_loop(x, params, rho):
    """Reference: D^{-1/2} K_rho(x) D^{-1/2} built one pair block at a time."""
    n = x.size
    k = np.diag((2.0 * params.delta - 1.0) / 4.0 + (0.5 - rho) * x)
    for i in range(n):
        for j in range(i):
            w = 0.5 * params.beta / (x[i] - x[j]) ** 2
            k[i, i] += w * (x[i] ** 2 + x[i] * x[j])
            k[j, j] += w * (x[j] ** 2 + x[i] * x[j])
            k[i, j] = k[j, i] = -2.0 * w * x[i] * x[j]
    s = 1.0 / np.sqrt(x)
    return s[:, None] * k * s[None, :]


def _curvature_cases():
    for n in (1, 2, 4, 6):
        for beta in (0.0, 1.0, 2.0):
            yield ModelParams(n, 2.0 + (n - 1) * beta / 2.0, beta)


def test_curvature_matrix_identity_matches_gamma2_explicit():
    # Gamma_2(f) - rho Gamma(f) = g^T K_rho g + sum_i x_i^2 (H_ii + g_i/(2x_i))^2
    #                             + sum_{i>j} 2 x_i x_j H_ij^2
    rng = np.random.default_rng(31)
    checked = 0
    for params in _curvature_cases():
        states = random_ordered_states(params, rng, 30)
        for x in states:
            rho = float(rng.uniform(-1.0, 2.0))
            (kt,) = curvature_matrices(x[None, :], params, rho)
            ref = _curvature_matrix_loop(x, params, rho)
            assert np.abs(kt - ref).max() <= 1e-12 * np.abs(ref).max()
            f = random_test_function(params.n, rng, degree=2)
            g, h = f.gradient(x), f.hessian(x)
            u = np.sqrt(x) * g  # g^T K_rho g = u^T Kt u
            squares = float(np.sum(x**2 * (np.diag(h) + g / (2.0 * x)) ** 2))
            squares += sum(2.0 * x[i] * x[j] * h[i, j] ** 2
                           for i in range(params.n) for j in range(i))
            g2, terms = gamma2_explicit(f, x, params, return_terms=True)
            gam = carre_du_champ(f, x)
            scale = max(1.0, sum(abs(t) for t in terms) + abs(rho * gam))
            assert abs((g2 - rho * gam) - (u @ kt @ u + squares)) <= 1e-12 * scale
            checked += 1
    assert checked >= 300


def _random_ordered_state_loop(params, gen, min_gap):
    """Reference: one state per call, as random_ordered_states(..., 1)[0]
    gives it."""
    x = np.sort(gen.standard_gamma(max(params.alpha, 1.0), size=params.n))
    x[0] = max(x[0], min_gap)
    for i in range(1, params.n):
        x[i] = max(x[i], x[i - 1] + min_gap)
    return x


def test_random_ordered_states_match_one_state_at_a_time():
    for params in (ModelParams(1, 0.5, 0.0), ModelParams(6, 9.0, 2.0), ModelParams(4, 2.0, 0.0)):
        gen, ref_gen = np.random.default_rng(41), np.random.default_rng(41)
        got = random_ordered_states(params, gen, 50, min_gap=0.3)
        want = [_random_ordered_state_loop(params, ref_gen, 0.3) for _ in range(50)]
        assert got.tobytes() == np.array(want).tobytes()
        assert gen.bit_generator.state == ref_gen.bit_generator.state
        one = random_ordered_states(params, gen, 1, min_gap=0.3)[0]
        assert one.tobytes() == _random_ordered_state_loop(params, ref_gen, 0.3).tobytes()


def test_exact_gap_never_above_random_search_gap():
    for params in _curvature_cases():
        rho = 0.5
        report = cd_certificate(params, rho, 200, RngStream(params.n, int(params.beta)))
        # the certificate's states: the first draws of its generator
        gen = RngStream(params.n, int(params.beta)).generator()
        states = random_ordered_states(params, gen, 200)
        lam = np.linalg.eigh(curvature_matrices(states, params, rho))[0]
        assert report.min_gap == lam[:, 0].min()
        search = np.inf
        for x, (exact, top) in zip(states, lam[:, [0, -1]]):
            f = random_test_function(params.n, gen, degree=2)
            g2, terms = gamma2_explicit(f, x, params, return_terms=True)
            gam = carre_du_champ(f, x)
            scale = max(1.0, sum(abs(t) for t in terms) + abs(rho * gam), top * gam)
            assert g2 - rho * gam >= exact * gam - 1e-12 * scale
            search = min(search, (g2 - rho * gam) / gam)
        assert report.min_gap <= search


def _witness_of(report, n):
    coeffs = {tuple(int(e) for e in m.split()): c for m, c in report.worst_case["f_coeffs"].items()}
    return Polynomial(n, coeffs), np.array(report.worst_case["state"])


def test_cd_certificate_witness_attains_min_gap():
    for params, rho in ((ModelParams(6, 6.0, 1.0), 0.5), (ModelParams(4, 5.0, 2.0), 0.9),
                        (ModelParams(3, 1.2, 1.0, allow_weak=True), 0.5),
                        (ModelParams(5, 3.0, 0.0), 0.5)):
        report = cd_certificate(params, rho, 300, RngStream(7, 1))
        f, x = _witness_of(report, params.n)
        gam = carre_du_champ(f, x)
        g2 = gamma2_explicit(f, x, params)
        assert gam == pytest.approx(1.0, rel=1e-12)
        assert abs((g2 - rho * gam) - report.min_gap) <= 1e-9 * report.scale
        assert report.worst_case["gamma"] == gam
        assert report.worst_case["gamma2"] == g2
        assert report.rho_star == report.rho + report.min_gap
        assert json.loads(report.to_json())["rho_star"] == report.rho_star


def test_cd_certificate_witness_matches_square_root_oracle():
    # h(y) = f*(y^2/4) is f* in the coordinates y = 2 sqrt(x) of the
    # additive-noise system, so its edl_gamma2 at y is Gamma_2(f*) at x
    for params in (ModelParams(6, 6.0, 1.0), ModelParams(3, 4.0, 2.0), ModelParams(2, 2.5, 0.0)):
        report = cd_certificate(params, 0.5, 300, RngStream(8, 0))
        f, x = _witness_of(report, params.n)
        h = Polynomial(params.n, {tuple(2 * e for e in m): c / 4.0 ** sum(m)
                                  for m, c in f.coeffs.items()})
        want = gamma2_explicit(f, x, params)
        got = edl_gamma2(h, 2.0 * np.sqrt(x), params)
        assert got == pytest.approx(want, rel=1e-9)


def test_cd_certificate_raises_when_gamma2_disagrees(monkeypatch):
    from dyson_laguerre import geometry

    live = geometry.gamma2_explicit

    def off_by_a_little(f, state, params, return_terms=False):
        total, terms = live(f, state, params, return_terms=True)
        total += 1e-6 * max(1.0, sum(abs(t) for t in terms))
        return (total, terms) if return_terms else total

    monkeypatch.setattr(geometry, "gamma2_explicit", off_by_a_little)
    with pytest.raises(NumericError):
        cd_certificate(ModelParams(4, 5.0, 1.0), 0.5, 50, RngStream(3, 0))


def test_random_ordered_state_respects_gap():
    params = ModelParams(6, 9.0, 2.0)
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = random_ordered_states(params, rng, 1, min_gap=1e-4)[0]
        assert np.min(np.diff(s)) >= 1e-4 * (1 - 1e-12)
        assert np.all(s > 0)


class _ValidatingPolynomial:
    """Reference: Polynomial as it stood when every result of its algebra
    went back through the validating constructor and evaluation walked
    numpy scalars."""

    def __init__(self, nvars, coeffs):
        self.nvars = int(nvars)
        clean = {}
        for mono, c in coeffs.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != self.nvars:
                raise ValueError(f"exponent tuple {mono} has length {len(mono)}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = float(c)
            if c != 0.0:
                clean[mono] = clean.get(mono, 0.0) + c
        self.coeffs = {m: c for m, c in clean.items() if c != 0.0}

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = _ValidatingPolynomial(self.nvars, {(0,) * self.nvars: other})
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return _ValidatingPolynomial(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return _ValidatingPolynomial(self.nvars, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = _ValidatingPolynomial(self.nvars, {(0,) * self.nvars: other})
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return _ValidatingPolynomial(
                self.nvars, {m: c * other for m, c in self.coeffs.items()}
            )
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0.0) + c1 * c2
        return _ValidatingPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def diff(self, i):
        out = {}
        for m, c in self.coeffs.items():
            if m[i] == 0:
                continue
            mm = list(m)
            mm[i] -= 1
            out[tuple(mm)] = out.get(tuple(mm), 0.0) + c * m[i]
        return _ValidatingPolynomial(self.nvars, out)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        total = 0.0
        for m, c in self.coeffs.items():
            term = c
            for xi, e in zip(x, m):
                if e:
                    term *= xi**e
            total += term
        return total

    def gradient(self, x):
        return np.array([self.diff(i)(x) for i in range(self.nvars)])

    def hessian(self, x):
        h = np.empty((self.nvars, self.nvars))
        for i in range(self.nvars):
            di = self.diff(i)
            for j in range(i, self.nvars):
                h[i, j] = h[j, i] = di.diff(j)(x)
        return h


def _random_test_function_scalar(n, rng, degree=2, coeff_range=1.0):
    """Reference: random_test_function as it stood, one scalar draw per
    monomial during the recursion."""
    coeffs = {}

    def extend(prefix, remaining, budget):
        if remaining == 0:
            coeffs[tuple(prefix)] = float(rng.uniform(-coeff_range, coeff_range))
            return
        for e in range(budget + 1):
            extend(prefix + [e], remaining - 1, budget - e)

    extend([], n, degree)
    return _ValidatingPolynomial(n, coeffs)


def _assert_same_poly(got, want):
    assert got.nvars == want.nvars
    assert list(got.coeffs) == list(want.coeffs)  # keys and their order
    assert all(type(c) is float for c in got.coeffs.values())
    got_c = np.array(list(got.coeffs.values()), dtype=float)
    want_c = np.array(list(want.coeffs.values()), dtype=float)
    assert got_c.tobytes() == want_c.tobytes()


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def _random_coeffs(rng, nvars):
    """Monomials of total degree <= 4 with coefficients that cancel in sums
    and products (small integers) or underflow to zero in products (tiny)."""
    coeffs = {}
    for _ in range(int(rng.integers(0, 9))):
        mono = [0] * nvars
        for _ in range(int(rng.integers(0, 5))):
            mono[int(rng.integers(nvars))] += 1
        kind = rng.integers(3)
        if kind == 0:
            c = float(rng.integers(-2, 3))
        elif kind == 1:
            c = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-200, -170))
        else:
            c = float(rng.normal())
        coeffs[tuple(mono)] = c
    return coeffs


def test_polynomial_algebra_matches_validating_reference():
    rng = np.random.default_rng(17)
    for _ in range(400):
        nvars = int(rng.integers(1, 7))
        ca, cb = _random_coeffs(rng, nvars), _random_coeffs(rng, nvars)
        if rng.uniform() < 0.3:
            # share monomials with opposite signs so sums cancel
            cb.update({m: -c for m, c in ca.items() if rng.uniform() < 0.5})
        p, q = Polynomial(nvars, ca), Polynomial(nvars, cb)
        rp, rq = _ValidatingPolynomial(nvars, ca), _ValidatingPolynomial(nvars, cb)
        _assert_same_poly(p, rp)
        scalar = float(rng.choice([0.0, 2.0, -1e-200, rng.normal()]))
        pairs = [
            (p + q, rp + rq),
            (p - q, rp - rq),
            (-p, -rp),
            (p * q, rp * rq),
            ((p - q) * (p + q), (rp - rq) * (rp + rq)),
            (p * scalar, rp * scalar),
            (3 * p, 3 * rp),
            (p * np.float64(scalar), rp * np.float64(scalar)),
            (p + scalar, rp + scalar),
            (p - 1, rp - 1),
        ]
        pairs += [(p.diff(i), rp.diff(i)) for i in range(nvars)]
        pairs += [((p * q).diff(i).diff(0), (rp * rq).diff(i).diff(0)) for i in range(nvars)]
        for got, want in pairs:
            _assert_same_poly(got, want)
        prod, rprod = p * q + p, rp * rq + rp
        for x in (rng.gamma(2.0, size=nvars), rng.normal(size=nvars) * 3.0, np.zeros(nvars)):
            assert _same_bits(prod(x), rprod(x))
            assert _same_bits(prod(list(x)), rprod(list(x)))
            assert _same_bits(prod.gradient(x), rprod.gradient(x))
            assert _same_bits(prod.hessian(x), rprod.hessian(x))


def test_polynomial_power_overflow_is_inf_as_before():
    # x0^4 and its first derivative overflow, the second does not
    f = Polynomial(2, {(4, 0): 1.0, (0, 1): 2.0, (1, 1): -1.0})
    ref = _ValidatingPolynomial(2, {(4, 0): 1.0, (0, 1): 2.0, (1, 1): -1.0})
    x = np.array([1e150, 3.0])
    with np.errstate(over="ignore"):
        got, want = f(x), ref(x)
        grad, ref_grad = f.gradient(x), ref.gradient(x)
        assert _same_bits(f.hessian(x), ref.hessian(x))
    assert got == want == np.inf
    assert _same_bits(grad, ref_grad) and grad[0] == np.inf


def test_random_test_function_matches_scalar_draws():
    for n in range(1, 7):
        for degree, coeff_range in ((0, 1.0), (1, 2.5), (2, 1.0), (3, 0.5), (2, 0.0)):
            gen, ref_gen = np.random.default_rng(n), np.random.default_rng(n)
            got = random_test_function(n, gen, degree=degree, coeff_range=coeff_range)
            want = _random_test_function_scalar(n, ref_gen, degree, coeff_range)
            _assert_same_poly(got, want)
            assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_cd_certificate_report_matches_validating_reference():
    # reference: one state, one pair-block matrix and one eigvalsh per draw
    for n in (2, 4, 6):
        for beta in (1.0, 2.0):
            params = ModelParams(n, 2.0 + (n - 1) * beta / 2.0, beta)
            rho, trials = 0.5, 60
            gen = RngStream(n, int(beta)).generator()
            report = cd_certificate(params, rho, trials, gen)
            ref_gen = RngStream(n, int(beta)).generator()
            states = [_random_ordered_state_loop(params, ref_gen, 1e-6) for _ in range(trials)]
            gaps = [np.linalg.eigvalsh(_curvature_matrix_loop(x, params, rho))[0] for x in states]
            k = int(np.argmin(gaps))
            assert report.min_gap == pytest.approx(gaps[k], rel=1e-12)
            assert report.rho_star == pytest.approx(rho + gaps[k], rel=1e-12)
            assert report.worst_case["state"] == pytest.approx(states[k].tolist(), rel=1e-12)
            # after the states, the certificate drew exactly SPOT_CHECKS quadratics
            for _ in range(SPOT_CHECKS):
                _random_test_function_scalar(n, ref_gen, degree=2)
            assert gen.bit_generator.state == ref_gen.bit_generator.state
