import numpy as np
import pytest

from dyson_laguerre import (
    DomainError,
    ModelParams,
    ParticleState,
    Polynomial,
    SizeMismatch,
    carre_du_champ,
    carre_du_champ2,
    cd_certificate,
    edl_gamma2,
    gamma2_definitional,
    gamma2_explicit,
    geodesic_point,
    riemannian_distance,
)
from dyson_laguerre.geometry import random_ordered_state, random_test_function
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
    assert np.allclose(geodesic_point(x, y, 0.0).as_array(), x, atol=1e-15)
    assert np.allclose(geodesic_point(x, y, 1.0).as_array(), y, atol=1e-15)
    # constant speed: distance from x to gamma(t) is t * d(x, y)
    d = riemannian_distance(x, y)
    for t in (0.25, 0.5, 0.75):
        mid = geodesic_point(x, y, t)
        assert riemannian_distance(x, mid.as_array()) == pytest.approx(t * d, abs=1e-12)
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
        state = random_ordered_state(params, rng)
        want = 0.5 * params.alpha * params.n + 0.5 * state.as_array().sum()
        assert gamma2_explicit(f, state, params) == pytest.approx(want, rel=1e-12)
        assert gamma2_definitional(f, state, params) == pytest.approx(want, rel=1e-9)


def test_gamma2_explicit_matches_definitional():
    # the closed form against the raw definition through the generator
    rng = np.random.default_rng(5)
    for n, beta in [(2, 1.0), (3, 2.0), (4, 4.0)]:
        params = ModelParams(n, 2.0 + (n - 1) * beta / 2.0, beta)
        for _ in range(25):
            state = random_ordered_state(params, rng, min_gap=1e-3)
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
    got = gamma2_explicit(f, ParticleState([x]), params)
    assert got == pytest.approx(want, rel=1e-12)


def test_edl_gamma2_single_particle_hand_case():
    # n = 1, f(y) = y: ||Hess||^2 = 0, so Gamma_2 = 1/2 + (2 delta - 1)/y^2
    params = ModelParams(1, 2.5, 0.0)
    f = Polynomial.coordinate(1, 0)
    y = 1.3
    want = 0.5 + (2 * 2.5 - 1.0) / y**2
    assert edl_gamma2(f, np.array([y]), params) == pytest.approx(want, rel=1e-12)


def test_edl_gamma2_dominates_half_gamma():
    # additive-noise curvature: Gamma_2 >= 1/2 |grad f|^2 holds pointwise
    rng = np.random.default_rng(7)
    params = ModelParams(3, 5.0, 2.0)
    for _ in range(50):
        state = random_ordered_state(params, rng, min_gap=1e-3)
        y = 2.0 * np.sqrt(state.as_array())
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
    # an absurdly large rho must be violated by random search
    params = ModelParams(3, 4.0, 2.0)
    report = cd_certificate(params, 1e6, 200, RngStream(12, 0))
    assert report.violated()


def test_random_ordered_state_respects_gap():
    params = ModelParams(6, 9.0, 2.0)
    rng = np.random.default_rng(13)
    for _ in range(20):
        s = random_ordered_state(params, rng, min_gap=1e-4)
        assert s.min_gap() >= 1e-4 * (1 - 1e-12)
        assert np.all(s.as_array() > 0)


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


def test_cd_certificate_report_matches_validating_reference(monkeypatch):
    from dyson_laguerre import geometry

    for n in (2, 4, 6):
        for beta in (1.0, 2.0):
            params = ModelParams(n, 2.0 + (n - 1) * beta / 2.0, beta)
            got = cd_certificate(params, 0.5, 60, RngStream(n, int(beta))).to_json()
            with monkeypatch.context() as m:
                m.setattr(geometry, "random_test_function", _random_test_function_scalar)
                want = cd_certificate(params, 0.5, 60, RngStream(n, int(beta))).to_json()
            assert got == want
