"""Intrinsic geometry and curvature: distance, geodesics, Gamma calculus.

The diffusion metric ds^2 = sum_i dx_i^2 / x_i on the open chamber has
closed-form geodesics: in square-root coordinates u = sqrt(x) it is (four
times) the flat metric, so

    d_g(x, y) = 2 * sqrt(sum_i (sqrt(x_i) - sqrt(y_i))^2)

and geodesics are straight lines in u.  The carre du champ of the generator
is Gamma(f) = sum_i x_i (d_i f)^2, consistent with that metric.

Two independent evaluations of the iterated operator Gamma_2 are provided:
a closed-form expression (gamma2_explicit) and the definition
Gamma_2 = (1/2) G Gamma(f) - Gamma(f, Gf) evaluated with exact polynomial
partial derivatives (gamma2_definitional); edl_gamma2 is a third, in
square-root coordinates.  Agreement of them on random inputs is part of the
test suite.

Gamma_2 depends on f only through g = grad f(x) and H = Hess f(x), and for
every f

    Gamma_2(f) - rho Gamma(f) = g^T K_rho(x) g + sum_i x_i^2 (H_ii + g_i / (2 x_i))^2
                                + sum_{i>j} 2 x_i x_j H_ij^2,

so the curvature bound Gamma_2 >= rho Gamma holds at x exactly when the
n x n matrix K_rho(x) is positive semidefinite (see curvature_matrices).
cd_certificate computes the best constant rho*(x) at a batch of random
states with one stacked eigensolve and cross-checks it against
gamma2_explicit at the worst one.
"""

from dataclasses import dataclass
import json

import numpy as np

from .errors import DomainError, NumericError, SizeMismatch
from .model import (
    Polynomial,
    apply_generator,
    check_states,
    dl_drift,
    dl_drift_jacobian,
    _one_state,
    _require_arity,
    _require_separated,
    _sqrt_state,
)
from .simulate import RngStream, _coerce_generator


def riemannian_distance(x, y):
    """Intrinsic distance 2*||sqrt(x) - sqrt(y)||_2."""
    a, b = check_states(x), check_states(y)
    if a.size != b.size:
        raise SizeMismatch(f"states have sizes {a.size} and {b.size}")
    return 2.0 * float(np.linalg.norm(np.sqrt(a) - np.sqrt(b)))


def geodesic_point(x, y, t):
    """Point at parameter t on the unit-parameter geodesic from x to y,

        gamma_i(t) = ((1-t) sqrt(x_i) + t sqrt(y_i))^2,   t in [0, 1].
    """
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"geodesic parameter must lie in [0, 1], got {t}")
    a, b = check_states(x), check_states(y)
    if a.size != b.size:
        raise SizeMismatch(f"states have sizes {a.size} and {b.size}")
    u = (1.0 - t) * np.sqrt(a) + t * np.sqrt(b)
    return u**2


def carre_du_champ(f, state):
    """Gamma(f)(x) = sum_i x_i (d_i f)^2."""
    x = _one_state(state, f.nvars)
    grad = f.gradient(x)
    return float(np.sum(x * grad**2))


def carre_du_champ2(f, g, state):
    """Bilinear form Gamma(f, g)(x) = sum_i x_i d_i f d_i g."""
    x = _one_state(state, f.nvars)
    _require_arity(g, f.nvars)
    gf = f.gradient(x)
    gg = g.gradient(x)
    return float(np.sum(x * gf * gg))


def gamma2_explicit(f, state, params, return_terms=False):
    """Closed-form Gamma_2 of the interacting generator at a state.

    Gamma_2(f) = (delta/2) |grad f|^2 + (1/2) Gamma(f)
               + sum_i [ x_i^2 f_ii^2 + x_i f_i f_ii ]
               + sum_{i>j} [ 2 x_i x_j f_ij^2
                             + (beta/2) (x_i^2 f_i^2 + x_j^2 f_j^2) / (x_i - x_j)^2
                             + (beta/2) x_i x_j (f_i^2 - 4 f_i f_j + f_j^2) / (x_i - x_j)^2 ]

    With return_terms=True also returns the four term groups, whose
    magnitudes set the natural scale for tolerance checks.
    """
    x = _one_state(state, params.n)
    _require_arity(f, params.n)
    _require_separated(x, params.beta, what="gamma2 state")
    n, beta, delta = params.n, params.beta, params.delta
    grad = f.gradient(x)
    hess = f.hessian(x)
    t_order0 = 0.5 * delta * float(np.sum(grad**2)) + 0.5 * float(np.sum(x * grad**2))
    t_diag = float(np.sum(x**2 * np.diag(hess) ** 2 + x * grad * np.diag(hess)))
    t_cross = 0.0
    t_pair = 0.0
    for i in range(n):
        for j in range(i):
            t_cross += 2.0 * x[i] * x[j] * hess[i, j] ** 2
            if beta > 0:
                d2 = (x[i] - x[j]) ** 2
                t_pair += 0.5 * beta * (x[i] ** 2 * grad[i] ** 2 + x[j] ** 2 * grad[j] ** 2) / d2
                t_pair += (
                    0.5
                    * beta
                    * x[i]
                    * x[j]
                    * (grad[i] ** 2 - 4.0 * grad[i] * grad[j] + grad[j] ** 2)
                    / d2
                )
    total = t_order0 + t_diag + t_cross + t_pair
    if return_terms:
        return total, (t_order0, t_diag, t_cross, t_pair)
    return total


def gamma2_definitional(f, state, params):
    """Gamma_2 from its definition, (1/2) G Gamma(f) - Gamma(f, Gf).

    Gamma(f) is formed symbolically as a polynomial and pushed through the
    generator; the gradient of Gf uses exact polynomial partials up to
    third order together with the exact drift Jacobian.  No finite
    differences anywhere.
    """
    x = _one_state(state, params.n)
    _require_arity(f, params.n)
    n = params.n
    gamma_poly = Polynomial.zero(n)
    partials = [f.diff(i) for i in range(n)]
    for i in range(n):
        gamma_poly = gamma_poly + Polynomial.coordinate(n, i) * partials[i] * partials[i]
    term1 = 0.5 * apply_generator(gamma_poly, state, params)

    b = dl_drift(state, params)
    jac = dl_drift_jacobian(state, params)
    grad = np.array([p(x) for p in partials])
    term2 = 0.0
    for i in range(n):
        # d_i (G f) = f_ii + sum_j x_j f_ijj + sum_j (d_i b_j) f_j + sum_j b_j f_ij
        di_gf = partials[i].diff(i)(x)
        for j in range(n):
            fij = partials[i].diff(j)
            di_gf += x[j] * fij.diff(j)(x)
            di_gf += jac[i, j] * grad[j]
            di_gf += b[j] * fij(x)
        term2 += x[i] * grad[i] * di_gf
    return term1 - term2


def edl_gamma2(f, y_state, params):
    """Closed-form Gamma_2 of the square-root system at y (additive noise):

        ||Hess f||_F^2 + (1/2) sum_i f_i^2 + (2*delta - 1) sum_i f_i^2 / y_i^2
        + 2*beta sum_{i>j} [ (y_i f_i - y_j f_j)^2 + (y_i f_j - y_j f_i)^2 ]
                           / (y_i^2 - y_j^2)^2.
    """
    y = _sqrt_state(y_state, params)
    _require_arity(f, params.n)
    grad = f.gradient(y)
    hess = f.hessian(y)
    total = float(np.sum(hess**2))
    total += 0.5 * float(np.sum(grad**2))
    total += (2.0 * params.delta - 1.0) * float(np.sum(grad**2 / y**2))
    if params.beta > 0:
        for i in range(params.n):
            for j in range(i):
                denom = (y[i] ** 2 - y[j] ** 2) ** 2
                num = (y[i] * grad[i] - y[j] * grad[j]) ** 2
                num += (y[i] * grad[j] - y[j] * grad[i]) ** 2
                total += 2.0 * params.beta * num / denom
    return total


def random_ordered_states(params, rng, count, min_gap=1e-6):
    """A (count, n) array of random strictly ordered positive states: sorted
    equilibrium-like Gamma draws with a minimum-gap floor swept in from the
    left.  Row k is what the k-th of count one-row calls on the same
    generator would give."""
    gen = _coerce_generator(rng)
    x = np.sort(gen.standard_gamma(max(params.alpha, 1.0), size=(count, params.n)), axis=1)
    x[:, 0] = np.maximum(x[:, 0], min_gap)
    for i in range(1, params.n):
        x[:, i] = np.maximum(x[:, i], x[:, i - 1] + min_gap)
    return x


def random_test_function(n, rng, degree=2, coeff_range=1.0):
    """Random polynomial with uniform coefficients on all monomials of
    total degree <= degree (default quadratic)."""
    gen = _coerce_generator(rng)
    monos = []

    def extend(prefix, remaining, budget):
        if remaining == 0:
            monos.append(tuple(prefix))
            return
        for e in range(budget + 1):
            extend(prefix + [e], remaining - 1, budget - e)

    extend([], n, degree)
    # one draw of len(monos) uniforms consumes the stream exactly as one
    # scalar draw per monomial would, in the same order
    draws = gen.uniform(-coeff_range, coeff_range, size=len(monos)).tolist()
    return Polynomial._wrap(n, dict(zip(monos, draws)))


def curvature_matrices(x, params, rho):
    """Normalized curvature matrices D^{-1/2} K_rho(x) D^{-1/2}, D = diag(x),
    one per row of the (count, n) array of ordered states x.

    K_rho(x) = diag((2 delta - 1)/4 + (1/2 - rho) x_i) + P(x), where each
    pair i > j adds

        (beta/2) / (x_i - x_j)^2 * [[x_i^2 + x_i x_j, -2 x_i x_j],
                                    [-2 x_i x_j,      x_j^2 + x_i x_j]]

    on rows and columns (i, j).  Gamma_2(f) - rho Gamma(f) >= g^T K_rho g
    with equality when H_ii = -g_i / (2 x_i) and H_ij = 0 (see the module
    docstring), and Gamma(f) = g^T D g.  So the smallest eigenvalue of the
    normalized matrix is rho*(x) - rho, where rho*(x) is the largest
    constant with Gamma_2 >= rho* Gamma at x; by Sylvester's law of inertia
    it has the sign of the smallest eigenvalue of K_rho(x).
    """
    x = np.asarray(x, dtype=float)
    diag = np.arange(x.shape[1])
    d2 = (x[:, :, None] - x[:, None, :]) ** 2
    d2[:, diag, diag] = np.inf  # no self pair
    c = (0.5 * params.beta) / d2
    k = -2.0 * c * np.sqrt(x[:, :, None] * x[:, None, :])
    k[:, diag, diag] = (
        (2.0 * params.delta - 1.0) / (4.0 * x)
        + (0.5 - rho)
        + np.sum(c * (x[:, :, None] + x[:, None, :]), axis=2)
    )
    return k


def _witness(g, x):
    """The quadratic f(z) = sum_i g_i (z_i - x_i) - g_i (z_i - x_i)^2 / (4 x_i).

    Its gradient at x is g and its Hessian there is diag(-g_i / (2 x_i)), so
    Gamma_2(f) - rho Gamma(f) = g^T K_rho(x) g at x.
    """
    n = x.size
    f = Polynomial.zero(n)
    for i in range(n):
        d = Polynomial.coordinate(n, i) - x[i]
        f = f + d * g[i] - d * d * (g[i] / (4.0 * x[i]))
    return f


def _gamma_gap(f, state, params, rho, norm):
    """(Gamma_2(f) - rho Gamma(f), Gamma(f), Gamma_2(f), scale) at state.

    scale, for relative tolerances, is the magnitude of the Gamma_2 terms,
    or norm * Gamma(f) where that is larger: an eigensolver computes each
    eigenvalue of a matrix of norm `norm` to within a small multiple of
    machine epsilon times norm, and one nearly colliding pair makes the
    curvature matrix's norm large while leaving its smallest eigenvalue of
    order one.
    """
    g2, terms = gamma2_explicit(f, state, params, return_terms=True)
    gam = carre_du_champ(f, state)
    scale = max(1.0, sum(abs(t) for t in terms) + abs(rho * gam), norm * gam)
    return g2 - rho * gam, gam, g2, scale


# random quadratics at the worst state checked against the certificate
SPOT_CHECKS = 8
# agreement required of gamma2_explicit and the eigenvalues, relative to scale
CROSS_CHECK_RTOL = 1e-9


@dataclass
class CurvatureReport:
    """Outcome of the exact curvature certificate over sampled states.

    min_gap is the smallest, over the sampled states, of rho*(x) - rho, the
    smallest eigenvalue of the normalized curvature matrix: in units of
    Gamma, Gamma_2(f) - rho Gamma(f) >= min_gap Gamma(f) for every f at every
    sampled state, and some f attains it.  A negative min_gap means the
    bound Gamma_2 >= rho Gamma fails.  worst_case holds that f, as
    f_coeffs, with its state, Gamma_2 and Gamma (which is 1); scale is the
    magnitude of its Gamma_2 terms or of the curvature matrix there,
    whichever is larger (see cd_certificate).
    """

    rho: float
    samples: int
    min_gap: float
    worst_case: dict
    seed: object = None
    scale: float = 1.0

    @property
    def rho_star(self):
        """The largest rho the sampled states certify."""
        return self.rho + self.min_gap

    def violated(self):
        return self.min_gap < 0.0

    def to_json(self, indent=2):
        payload = {
            "rho": self.rho,
            "rho_star": self.rho_star,
            "samples": self.samples,
            "min_gap": self.min_gap,
            "scale": self.scale,
            "violated": self.violated(),
            "worst_case": self.worst_case,
            "seed": self.seed,
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


def cd_certificate(params, rho, trials, rng):
    """Exact check of Gamma_2 >= rho * Gamma at `trials` random states.

    The states come from random_ordered_states; one stacked eigensolve of
    their curvature_matrices gives rho*(x) - rho at each, and the report's
    min_gap is the smallest.  At the worst state the bottom eigenvector u
    gives g = D^{-1/2} u and the witness quadratic with that gradient, whose
    Gamma is 1 and whose Gamma_2 - rho Gamma is min_gap.  gamma2_explicit
    must agree: for the witness, and for SPOT_CHECKS random quadratics f,
    which must satisfy Gamma_2(f) - rho Gamma(f) >= min_gap Gamma(f).
    NumericError is raised when either check fails beyond CROSS_CHECK_RTOL
    times the larger of the magnitude of the terms and of the curvature
    matrix at that state times Gamma(f).
    """
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    seed = None
    if isinstance(rng, RngStream):
        seed = {"seed": rng.seed, "stream_id": rng.stream_id}
    gen = _coerce_generator(rng)
    states = random_ordered_states(params, gen, int(trials))
    lam, vec = np.linalg.eigh(curvature_matrices(states, params, rho))
    k = int(np.argmin(lam[:, 0]))
    min_gap = float(lam[k, 0])
    norm = float(max(-lam[k, 0], lam[k, -1]))
    x = states[k]
    f = _witness(vec[k, :, 0] / np.sqrt(x), x)
    gap, gam, g2, scale = _gamma_gap(f, x, params, rho, norm)
    if not abs(gap - min_gap) <= CROSS_CHECK_RTOL * scale:
        raise NumericError(
            f"curvature witness gives Gamma_2 - rho Gamma = {gap!r}, "
            f"the eigenvalue {min_gap!r} (scale {scale:.3e})"
        )
    for _ in range(SPOT_CHECKS):
        h = random_test_function(params.n, gen, degree=2)
        h_gap, h_gam, _, h_scale = _gamma_gap(h, x, params, rho, norm)
        if h_gap < min_gap * h_gam - CROSS_CHECK_RTOL * h_scale:
            raise NumericError(
                f"a random quadratic gives Gamma_2 - rho Gamma = {h_gap!r} below "
                f"min_gap * Gamma = {min_gap * h_gam!r} (scale {h_scale:.3e})"
            )
    return CurvatureReport(
        rho=float(rho),
        samples=int(trials),
        min_gap=min_gap,
        worst_case={
            "state": x.tolist(),
            "f_coeffs": {" ".join(map(str, m)): c for m, c in sorted(f.coeffs.items())},
            "gamma2": g2,
            "gamma": gam,
        },
        seed=seed,
        scale=float(scale),
    )
