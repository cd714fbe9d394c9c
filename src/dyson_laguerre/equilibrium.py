"""The invariant gas: exact samplers, energy, and unnormalized density.

The invariant measure has density proportional to

    prod_i x_i^(delta-1) e^{-x_i} * prod_{i>j} (x_i - x_j)^beta

on the ordered chamber, with delta = alpha - (n-1)*beta/2.  Two exact samplers:

* tridiagonal: eigenvalues of B B^T / 2 for a bidiagonal B with chi-distributed
  entries; exact for every admissible (alpha, beta), the default.
* matrix: eigenvalues of G G^T / 2 for an n x p standard Gaussian G; exact
  for beta = 1 when p = 2*alpha is an integer >= n.

sample_equilibrium_batch is the one entry point to both; a single draw is
row 0 of a batch of one.
"""

import numpy as np

from .errors import CollisionError, DomainError, NumericError, UnsupportedRegime
from .model import ParticleState, collision_tol
from .simulate import _coerce_generator

MIN_GAP_FLOOR = 1e-10


def _bidiagonal_draws(params, gen, size):
    """Exact equilibrium draws via the bidiagonal chi construction."""
    n, alpha, beta = params.n, params.alpha, params.beta
    if beta == 0.0:
        draws = gen.standard_gamma(alpha, size=(size, n))
        draws.sort(axis=1)
        return draws
    diag_dof = 2.0 * alpha - beta * np.arange(n)
    sub_dof = beta * (n - 1 - np.arange(n - 1)) if n > 1 else np.empty(0)
    if np.any(diag_dof <= 0):
        raise UnsupportedRegime(
            f"bidiagonal sampler needs 2*alpha - beta*(n-1) > 0, got {diag_dof.min()}"
        )
    d = np.sqrt(gen.chisquare(diag_dof, size=(size, n)))
    B = np.zeros((size, n, n))
    idx = np.arange(n)
    B[:, idx, idx] = d
    if n > 1:
        s = np.sqrt(gen.chisquare(sub_dof, size=(size, n - 1)))
        B[:, idx[1:], idx[:-1]] = s
    w = np.linalg.eigvalsh(B @ np.swapaxes(B, 1, 2))
    return 0.5 * np.maximum(w, 0.0)


def _wishart_draws(params, gen, size):
    """Exact beta = 1 draws from a Gaussian rectangle, when 2*alpha is integral."""
    if params.beta != 1.0:
        raise UnsupportedRegime("matrix equilibrium sampler applies to beta = 1 only")
    p = 2.0 * params.alpha
    if abs(p - round(p)) > 1e-12 or round(p) < params.n:
        raise UnsupportedRegime(
            f"matrix equilibrium sampler needs 2*alpha an integer >= n, got {p}"
        )
    p = int(round(p))
    G = gen.standard_normal((size, params.n, p))
    w = np.linalg.eigvalsh(G @ np.swapaxes(G, 1, 2))
    return 0.5 * np.maximum(w, 0.0)


_SAMPLERS = {
    "tridiagonal": _bidiagonal_draws,
    "matrix": _wishart_draws,
}


def sample_equilibrium_batch(params, rng, size, method=None):
    """Equilibrium draws as a (size, n) array of ordered rows.

    Draws whose minimal gap sits below a tiny floor are rejected and
    redrawn (an almost-sure non-event kept for downstream strictness).
    """
    if size < 1:
        raise DomainError("size must be at least 1")
    if method is None:
        method = "tridiagonal"
    if method not in _SAMPLERS:
        raise UnsupportedRegime(f"unknown equilibrium method {method!r}")
    gen = _coerce_generator(rng)
    sampler = _SAMPLERS[method]
    draws = sampler(params, gen, size)
    if params.n > 1:
        for _ in range(100):
            bad = np.min(np.diff(draws, axis=1), axis=1) <= MIN_GAP_FLOOR
            if params.beta == 0.0:
                bad |= draws[:, 0] <= 0.0
            if not np.any(bad):
                break
            draws[bad] = sampler(params, gen, int(np.sum(bad)))
        else:
            raise NumericError("equilibrium sampler kept producing collided draws")
    return draws


def _energy_terms(x, params):
    delta, beta = params.delta, params.beta
    if np.any(x <= 0):
        raise DomainError("energy requires strictly positive coordinates")
    single = float(np.sum(x - (delta - 1.0) * np.log(x)))
    if beta == 0.0 or x.size == 1:
        return single, 0.0
    diffs = x[:, None] - x[None, :]
    lower = np.tril_indices(x.size, k=-1)
    gaps = diffs[lower]
    if np.any(gaps <= collision_tol(x)):
        raise CollisionError("energy requires strictly separated coordinates")
    return single, -beta * float(np.sum(np.log(gaps)))


def gibbs_energy(state, params):
    """E(x) = sum_i (x_i - (delta-1) log x_i) - beta sum_{i>j} log(x_i - x_j).

    The drift satisfies b_i = 1 - x_i dE/dx_i, so exp(-E) is (up to
    normalization) the invariant density.
    """
    x = state.as_array() if isinstance(state, ParticleState) else ParticleState(state).as_array()
    if x.size != params.n:
        raise DomainError(f"state has {x.size} coordinates, params expect {params.n}")
    single, inter = _energy_terms(x, params)
    return single + inter


def gibbs_gradient(state, params):
    """Exact gradient dE/dx_i = 1 - (delta-1)/x_i - beta sum_{j != i} 1/(x_i - x_j)."""
    x = state.as_array() if isinstance(state, ParticleState) else ParticleState(state).as_array()
    if np.any(x <= 0):
        raise DomainError("energy gradient requires strictly positive coordinates")
    grad = 1.0 - (params.delta - 1.0) / x
    if params.beta > 0 and x.size > 1:
        diffs = x[:, None] - x[None, :]
        np.fill_diagonal(diffs, np.inf)
        if np.any(np.abs(diffs[np.isfinite(diffs)]) <= collision_tol(x)):
            raise CollisionError("energy gradient requires separated coordinates")
        grad -= params.beta * np.sum(1.0 / diffs, axis=1)
    return grad


def log_density_unnormalized(state, params):
    """Log of the invariant density up to its normalizing constant."""
    return -gibbs_energy(state, params)


def edl_gibbs_energy(y_state, params):
    """Energy of the square-root system,

        sum_i (y_i^2/4 - (2*delta - 1) log y_i) - beta sum_{i>j} log(y_i^2 - y_j^2),

    whose negative gradient is the square-root drift.  Differs from the
    x-space energy at y = 2 sqrt(x) by half a log-Jacobian plus a constant.
    """
    y = np.asarray(y_state, dtype=float).reshape(-1)
    if y.size != params.n:
        raise DomainError(f"y state has {y.size} coordinates, params expect {params.n}")
    if np.any(y <= 0):
        raise DomainError("square-root energy requires strictly positive coordinates")
    two_dm1 = 2.0 * params.delta - 1.0
    single = float(np.sum(0.25 * y**2 - two_dm1 * np.log(y)))
    if params.beta == 0.0 or y.size == 1:
        return single
    s = np.sort(y**2)
    gaps = (s[:, None] - s[None, :])[np.tril_indices(y.size, k=-1)]
    if np.any(gaps <= 0):
        raise CollisionError("square-root energy requires separated coordinates")
    return single - params.beta * float(np.sum(np.log(gaps)))


_X0_ALIASES = {
    "zero": "zero",
    "equilibrium": "equilibrium",
    "equilibrium-draw": "equilibrium",
    "ramp": "ramp",
    "linear-ramp": "ramp",
    "outlier": "outlier",
    "single-outlier": "outlier",
}


def build_x0(preset, params, rng, positive=False):
    """Build a start configuration from a named preset.

    Presets: zero (all coordinates at the origin), equilibrium-draw (one
    exact gas sample, row 0 of a tridiagonal batch of one), linear-ramp
    (x_i = i), single-outlier (a ramp whose top coordinate is pushed to
    max(10*alpha, 2n)).  Returns (state, note); note records any
    substitution.  positive=True, which the Euler integrator's callers pass
    (simulate, distance and couple without m), replaces the zero preset by
    the ramp 1e-4 * (1, ..., n), since the scheme cannot start at 0; the
    cutoff profile draws phi exactly and keeps the zero preset at 0.
    """
    key = _X0_ALIASES.get(str(preset).lower())
    if key is None:
        raise DomainError(
            f"unknown x0 preset {preset!r}; choose one of "
            + ", ".join(sorted(set(_X0_ALIASES.values())))
        )
    n = params.n
    note = None
    if key == "zero":
        if positive:
            x = 1e-4 * np.arange(1.0, n + 1.0)
            note = "zero preset replaced by 1e-4 ramp (scheme needs a positive start)"
        else:
            x = np.zeros(n)
    elif key == "equilibrium":
        x = sample_equilibrium_batch(params, rng, 1)[0]
    elif key == "ramp":
        x = np.arange(1.0, n + 1.0)
    else:
        x = np.arange(1.0, n + 1.0)
        x[-1] = max(10.0 * params.alpha, 2.0 * n)
    return ParticleState(x), note
