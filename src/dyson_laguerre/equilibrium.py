"""The invariant gas: exact samplers, energy, and unnormalized density.

The invariant measure has density proportional to

    prod_i x_i^(delta-1) e^{-x_i} * prod_{i>j} (x_i - x_j)^beta

on the ordered chamber, with delta = alpha - (n-1)*beta/2.  One exact
sampler: the eigenvalues of B B^T / 2 for a bidiagonal B with chi-distributed
entries, exact for every admissible (alpha, beta).  sample_equilibrium_batch
is its one entry point; a single draw is row 0 of a batch of one.
"""

import numpy as np

from .errors import DomainError, NumericError, UnsupportedRegime
from .model import _one_state, _require_positive, _require_separated, _sqrt_state
from .simulate import _MATRIX_BLOCK, _coerce_generator

MIN_GAP_FLOOR = 1e-10


def _bidiagonal_draws(params, gen, size):
    """Exact equilibrium draws via the bidiagonal chi construction.

    The chi entries of every row are drawn first, then B B^T is built and
    solved in blocks of at most _MATRIX_BLOCK entries of B, so the working
    arrays stay within the block at any size and each row keeps its bits.
    """
    n, alpha, beta = params.n, params.alpha, params.beta
    if beta == 0.0:
        draws = gen.standard_gamma(alpha, size=(size, n))
        draws.sort(axis=1)
        return draws
    diag_dof = 2.0 * alpha - beta * np.arange(n)
    sub_dof = beta * (n - 1 - np.arange(n - 1))
    if np.any(diag_dof <= 0):
        raise UnsupportedRegime(
            f"bidiagonal sampler needs 2*alpha - beta*(n-1) > 0, got {diag_dof.min()}"
        )
    d = np.sqrt(gen.chisquare(diag_dof, size=(size, n)))
    s = np.sqrt(gen.chisquare(sub_dof, size=(size, n - 1)))
    idx = np.arange(n)
    w = np.empty((size, n))
    per = max(1, _MATRIX_BLOCK // (n * n))
    for lo in range(0, size, per):
        B = np.zeros((d[lo:lo + per].shape[0], n, n))
        B[:, idx, idx] = d[lo:lo + per]
        B[:, idx[1:], idx[:-1]] = s[lo:lo + per]
        w[lo:lo + per] = np.linalg.eigvalsh(B @ np.swapaxes(B, 1, 2))
    return 0.5 * np.maximum(w, 0.0)


# A table of the one sampler, read at each call: bench/tracing.py wraps its
# values to count sampler calls and redraws.
_SAMPLERS = {"tridiagonal": _bidiagonal_draws}


def sample_equilibrium_batch(params, rng, size):
    """Exact equilibrium draws from the bidiagonal sampler, as a (size, n)
    array of ordered rows.

    Draws whose minimal gap sits below a tiny floor are rejected and
    redrawn (an almost-sure non-event kept for downstream strictness).
    """
    if size < 1:
        raise DomainError("size must be at least 1")
    gen = _coerce_generator(rng)
    sampler = _SAMPLERS["tridiagonal"]
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


def _energy_state(state, params):
    """state as one state where the energy and its gradient are finite:
    strictly positive coordinates, separated where beta > 0."""
    x = _one_state(state, params.n)
    _require_positive(x, "the energy")
    _require_separated(x, params.beta)
    return x


def gibbs_energy(state, params):
    """E(x) = sum_i (x_i - (delta-1) log x_i) - beta sum_{i>j} log(x_i - x_j).

    The drift satisfies b_i = 1 - x_i dE/dx_i, so exp(-E) is (up to
    normalization) the invariant density.
    """
    x = _energy_state(state, params)
    single = float(np.sum(x - (params.delta - 1.0) * np.log(x)))
    if params.beta == 0.0 or x.size == 1:
        return single
    gaps = (x[:, None] - x[None, :])[np.tril_indices(x.size, k=-1)]
    return single - params.beta * float(np.sum(np.log(gaps)))


def gibbs_gradient(state, params):
    """Exact gradient dE/dx_i = 1 - (delta-1)/x_i - beta sum_{j != i} 1/(x_i - x_j)."""
    x = _energy_state(state, params)
    grad = 1.0 - (params.delta - 1.0) / x
    if params.beta > 0 and x.size > 1:
        diffs = x[:, None] - x[None, :]
        np.fill_diagonal(diffs, np.inf)
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
    y = _sqrt_state(y_state, params)
    two_dm1 = 2.0 * params.delta - 1.0
    single = float(np.sum(0.25 * y**2 - two_dm1 * np.log(y)))
    if params.beta == 0.0 or y.size == 1:
        return single
    s = np.sort(y**2)
    gaps = (s[:, None] - s[None, :])[np.tril_indices(y.size, k=-1)]
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
    exact gas sample, row 0 of sample_equilibrium_batch(params, rng, 1)), linear-ramp
    (x_i = i), single-outlier (a ramp whose top coordinate is pushed to
    max(10*alpha, 2n)).  Returns (x0, note): x0 an (n,) float array, and
    note a string recording any substitution, or None.  positive=True,
    which simulate, distance and couple pass on the Euler route, replaces
    the zero preset by the ramp 1e-4 * (1, ..., n), since the Euler scheme
    cannot start at 0; the exact routes (the matrix flow, and the cutoff
    profile's exact draws of phi) keep the zero preset at 0.
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
    return x, note
