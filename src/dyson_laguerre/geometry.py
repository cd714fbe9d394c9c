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
partial derivatives (gamma2_definitional).  Agreement of the two on random
inputs is part of the test suite; cd_certificate searches for violations of
the curvature lower bound Gamma_2 >= rho * Gamma.
"""

from dataclasses import dataclass
import json
import math

import numpy as np

from .errors import DomainError, SizeMismatch
from .model import (
    ParticleState,
    Polynomial,
    apply_generator,
    dl_drift,
    dl_drift_jacobian,
    _state_array,
    _require_separated,
)
from .simulate import RngStream, _coerce_generator


def _coords(x):
    if isinstance(x, ParticleState):
        return x.as_array()
    a = np.asarray(x, dtype=float).reshape(-1)
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise DomainError("coordinates must be finite and nonnegative")
    return a


def riemannian_distance(x, y):
    """Intrinsic distance 2*||sqrt(x) - sqrt(y)||_2."""
    a, b = _coords(x), _coords(y)
    if a.size != b.size:
        raise SizeMismatch(f"states have sizes {a.size} and {b.size}")
    return 2.0 * float(np.linalg.norm(np.sqrt(a) - np.sqrt(b)))


def geodesic_point(x, y, t):
    """Point at parameter t on the unit-parameter geodesic from x to y,

        gamma_i(t) = ((1-t) sqrt(x_i) + t sqrt(y_i))^2,   t in [0, 1].
    """
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"geodesic parameter must lie in [0, 1], got {t}")
    a, b = _coords(x), _coords(y)
    if a.size != b.size:
        raise SizeMismatch(f"states have sizes {a.size} and {b.size}")
    u = (1.0 - t) * np.sqrt(a) + t * np.sqrt(b)
    return ParticleState(u**2)


def carre_du_champ(f, state):
    """Gamma(f)(x) = sum_i x_i (d_i f)^2."""
    x = _coords(state)
    if f.nvars != x.size:
        raise DomainError(f"f has {f.nvars} variables, state has {x.size}")
    grad = f.gradient(x)
    return float(np.sum(x * grad**2))


def carre_du_champ2(f, g, state):
    """Bilinear form Gamma(f, g)(x) = sum_i x_i d_i f d_i g."""
    x = _coords(state)
    if f.nvars != x.size or g.nvars != x.size:
        raise DomainError("dimension mismatch in carre_du_champ2")
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
    x = _state_array(state)
    if f.nvars != params.n or x.size != params.n:
        raise DomainError("dimension mismatch in gamma2_explicit")
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
    x = _state_array(state)
    if f.nvars != params.n or x.size != params.n:
        raise DomainError("dimension mismatch in gamma2_definitional")
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
    y = np.asarray(
        y_state.as_array() if isinstance(y_state, ParticleState) else y_state, dtype=float
    ).reshape(-1)
    if f.nvars != params.n or y.size != params.n:
        raise DomainError("dimension mismatch in edl_gamma2")
    if np.any(y <= 0):
        raise DomainError("square-root coordinates must be strictly positive")
    grad = f.gradient(y)
    hess = f.hessian(y)
    total = float(np.sum(hess**2))
    total += 0.5 * float(np.sum(grad**2))
    total += (2.0 * params.delta - 1.0) * float(np.sum(grad**2 / y**2))
    if params.beta > 0:
        for i in range(params.n):
            for j in range(i):
                denom = (y[i] ** 2 - y[j] ** 2) ** 2
                if denom == 0.0:
                    raise DomainError("square-root coordinates must be separated")
                num = (y[i] * grad[i] - y[j] * grad[j]) ** 2
                num += (y[i] * grad[j] - y[j] * grad[i]) ** 2
                total += 2.0 * params.beta * num / denom
    return total


def random_ordered_state(params, rng, min_gap=1e-6):
    """A random strictly ordered positive state: sorted equilibrium-like
    Gamma draws with a minimum-gap floor swept in from the left."""
    gen = _coerce_generator(rng)
    x = np.sort(gen.standard_gamma(max(params.alpha, 1.0), size=params.n))
    x[0] = max(x[0], min_gap)
    for i in range(1, params.n):
        x[i] = max(x[i], x[i - 1] + min_gap)
    return ParticleState(x)


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


@dataclass
class CurvatureReport:
    """Outcome of a randomized curvature-bound search."""

    rho: float
    samples: int
    min_gap: float
    worst_case: dict
    seed: object = None
    scale: float = 1.0

    def violated(self):
        return self.min_gap < 0.0

    def to_json(self, indent=2):
        payload = {
            "rho": self.rho,
            "samples": self.samples,
            "min_gap": self.min_gap,
            "scale": self.scale,
            "violated": self.violated(),
            "worst_case": self.worst_case,
            "seed": self.seed,
        }
        return json.dumps(payload, indent=indent, sort_keys=True)


def cd_certificate(params, rho, trials, rng):
    """Search random quadratics and random states for violations of
    Gamma_2 >= rho * Gamma, reporting the minimal observed gap.

    The report's scale field carries the magnitude of the terms at the
    worst case so callers can apply a relative tolerance.
    """
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    seed = None
    if isinstance(rng, RngStream):
        seed = {"seed": rng.seed, "stream_id": rng.stream_id}
    gen = _coerce_generator(rng)
    min_gap = math.inf
    worst = None
    worst_scale = 1.0
    for _ in range(int(trials)):
        state = random_ordered_state(params, gen)
        f = random_test_function(params.n, gen, degree=2)
        g2, terms = gamma2_explicit(f, state, params, return_terms=True)
        gam = carre_du_champ(f, state.as_array())
        gap = g2 - rho * gam
        if gap < min_gap:
            min_gap = gap
            worst = {
                "state": state.as_array().tolist(),
                "f_coeffs": {" ".join(map(str, m)): c for m, c in sorted(f.coeffs.items())},
                "gamma2": g2,
                "gamma": gam,
            }
            worst_scale = max(1.0, sum(abs(t) for t in terms) + abs(rho * gam))
    return CurvatureReport(
        rho=float(rho),
        samples=int(trials),
        min_gap=float(min_gap),
        worst_case=worst,
        seed=seed,
        scale=float(worst_scale),
    )
