"""Samplers and path generation: exact transitions and the Euler scheme.

Three routes to the particle law are implemented.

* An Euler-Maruyama scheme in square-root coordinates y_i = 2 sqrt(x_i),
  where the noise is additive.  Proposals are tamed: a small negative
  coordinate is reflected, and a breach beyond the taming threshold makes
  _propose_batch reject the row, which _advance replaces by two half steps
  (down to a floor of dt * 2**-12 before giving up).  That one halving
  recursion serves both drivers: solo paths here and coupled pairs in
  coupling, whose pair step halves both legs on one shared clock.
* The exact transition of the one-particle system (a squared Bessel-type
  process with reversion), sampled through a Poisson mixture of Gammas.
* The matrix route: an exactly sampled rectangular Ornstein-Uhlenbeck
  matrix flow whose spectrum, after scaling, follows the interacting system
  with beta = 1 and alpha = m/2.

One path driver per route, dl_paths_batch, matrix_dl_path and (for pairs)
coupling.run_coupled_batch, each returning (len(times), r, n) arrays.  A
single item is a batch of one: one start state is r = 1 rows, and on the
matrix route one n x m matrix is a stack of one, so rect_ou_transition and
spectral_projection return (r, n, m) and (r, n) arrays for every input.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import _kernels
from .errors import DomainError, EigenFailure, NumericError, ValidationError
from .model import ModelParams, ParticleState

DT_HALVING_LIMIT = 12


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Streams with the same seed and distinct stream_id values are
    statistically independent (they key separate PCG64 states through
    SeedSequence spawn keys).  generator() returns a fresh generator at the
    start of the stream each time it is called; hold on to one generator
    per logical consumer.
    """

    seed: int
    stream_id: int = 0

    def generator(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))


def _coerce_generator(rng):
    if isinstance(rng, np.random.Generator):
        return rng
    if hasattr(rng, "generator"):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError(f"cannot interpret {rng!r} as a random source")


def default_dt(x0, scale=1e-3):
    """Step-size heuristic: scale times a spacing statistic of the start state.

    The spacing statistic is the mean nearest-neighbor gap, clipped to
    [0.1, 1] so degenerate starts neither stall nor blow up the step.
    """
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.size > 1:
        spacing = float(np.mean(np.diff(np.sort(x))))
    else:
        spacing = 1.0
    return scale * min(1.0, max(spacing, 0.1))


def _validate_times(times):
    if np.ndim(times) != 1:
        raise DomainError("times must be a one-dimensional grid")
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        raise DomainError("empty time grid")
    if not np.all(np.isfinite(t)):
        raise DomainError("time grid must be finite")
    if np.any(t < 0):
        raise DomainError("times must be nonnegative")
    if np.any(np.diff(t) <= 0):
        raise DomainError("time grid must be strictly increasing")
    return t


def _propose_batch(y, dt, params, gen, noise=None, drift=None):
    """One tamed Euler proposal for every row of y; returns (proposal, ok_rows).

    A row fails if a coordinate is NaN or infinite, falls at or below the
    negative taming threshold -6*sqrt(2 dt), hits zero exactly, or (beta > 0)
    if the sorted proposal has a gap at or below the collision tolerance in
    x space.
    Small negative coordinates are reflected; proposals are re-sorted.
    Callers running coupled copies pass their own standard-normal noise and
    may pass the drift if they already computed it.
    """
    if drift is None:
        drift = _kernels.edl_drift_batch(y, params.alpha, params.beta)
    step_sd = math.sqrt(2.0 * dt)
    if noise is None:
        noise = gen.standard_normal(y.shape)
    prop = y + drift * dt + step_sd * noise
    tau = 6.0 * step_sd
    # The row checks reduce over axis 0 of transposed copies: numpy's
    # reductions along rows of a few entries cost more than the arithmetic.
    # fmin skips NaN, so a row breaches iff some non-NaN entry is <= -tau.
    ok = ~(np.fmin.reduce(prop.T.copy(), axis=0) <= -tau)
    prop = np.abs(prop)
    prop.sort(axis=1)
    ok &= prop[:, 0] > 0.0
    if params.beta > 0 and y.shape[1] > 1:
        x = 0.25 * prop.T.copy() ** 2
        tol = 1e-12 * (1.0 + x[-1])
        # np.min propagates NaN, so a row holding NaN is rejected, and a row
        # holding +inf has tol = inf
        ok &= np.min(x[1:] - x[:-1], axis=0) > tol
    else:
        # NaN and +inf sort last
        ok &= np.isfinite(prop[:, -1])
    return prop, ok


def _advance(rows, dt, step, depth=0):
    """Advance a tuple of row arrays by dt.  step(rows, dt, depth) returns
    fresh stepped arrays and the mask of accepted rows; a rejected row takes
    two half steps instead, down to DT_HALVING_LIMIT levels."""
    out, ok = step(rows, dt, depth)
    if np.all(ok):
        return out
    if depth >= DT_HALVING_LIMIT:
        raise NumericError(
            f"step halving exhausted after {DT_HALVING_LIMIT} levels (dt={dt:.3e})"
        )
    bad = ~ok
    sub = tuple(a[bad] for a in rows)
    sub = _advance(sub, 0.5 * dt, step, depth + 1)
    sub = _advance(sub, 0.5 * dt, step, depth + 1)
    for a, s in zip(out, sub):
        a[bad] = s
    return out


def _step_plan(times, dt):
    """(n_steps, h) per grid time: equal steps of at most dt from the
    previous grid time, or from 0 for the first."""
    if dt <= 0 or not math.isfinite(dt):
        raise DomainError(f"dt must be positive and finite, got {dt}")
    spans = np.diff(times, prepend=0.0)
    counts = [max(1, int(math.ceil(s / dt - 1e-12))) if s > 0 else 0 for s in spans]
    return [(c, s / c if c else 0.0) for s, c in zip(spans, counts)]


def _start_rows(x0, params, replicas):
    """(r, n) start rows: one state repeated replicas times, or an (r, n)
    array as it is.  Every coordinate must be finite and strictly positive."""
    x = x0.as_array() if isinstance(x0, ParticleState) else np.asarray(x0, dtype=float)
    if x.ndim == 1:
        x = np.tile(x[None, :], (max(int(replicas), 0), 1))
    if x.ndim != 2 or x.shape[1] != params.n or x.shape[0] == 0:
        raise DomainError(f"start states must be ({params.n},) or (replicas >= 1, {params.n})")
    if not np.all(np.isfinite(x) & (x > 0)):
        raise DomainError("start coordinates must be finite and strictly positive")
    return x


def dl_paths_batch(x0, times, params, rng, replicas=1, dt=None):
    """Euler paths for a batch of replicas, observed on a shared time grid.

    x0 is one strictly positive ordered state, repeated replicas times, or
    an (r, n) array of per-row starts, as in run_coupled_batch.
    Returns an array of shape (len(times), r, n).
    """
    x0 = _start_rows(x0, params, replicas)
    times = _validate_times(times)
    gen = _coerce_generator(rng)
    plan = _step_plan(times, default_dt(x0[0]) if dt is None else dt)

    def step(rows, h, depth):
        prop, ok = _propose_batch(rows[0], h, params, gen)
        return (prop,), ok

    out = np.empty((times.size,) + x0.shape)
    y = 2.0 * np.sqrt(x0)
    for k, (n_steps, h) in enumerate(plan):
        for _ in range(n_steps):
            (y,) = _advance((y,), h, step)
        out[k] = 0.25 * y**2
    return out


def cir_exact_transition(x0, t, alpha, rng):
    """Exact transition of the one-particle system started from x0.

    The time-t law given x0 is (1 - e^-t) * Gamma(alpha + K, 1) with
    K ~ Poisson(x0 e^-t / (1 - e^-t)); sampling goes through that mixture,
    which is exact and needs no special functions.  Accepts scalar or array
    x0 (one draw per entry).
    """
    if alpha <= 0 or not math.isfinite(alpha):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"t must be nonnegative, got {t}")
    x = np.asarray(x0, dtype=float)
    if np.any(x < 0):
        raise DomainError("x0 must be nonnegative")
    if t == 0:
        return x.copy() if x.ndim else float(x)
    gen = _coerce_generator(rng)
    ec = math.exp(-t)
    c = -math.expm1(-t)
    lam = x * (ec / c)
    k = gen.poisson(lam)
    draw = c * gen.standard_gamma(alpha + k)
    return draw if x.ndim else float(draw)


@dataclass(frozen=True)
class MatrixParams:
    """Parameters of the rectangular matrix flow dM = kappa dB - gamma M dt.

    Scaling the spectrum of M M^T by gamma/kappa^2 and time by 2*gamma
    turns the eigenvalue flow into the canonical system with alpha = m/2
    and beta = 1.
    """

    n: int
    m: int
    kappa: float
    gamma: float

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and isinstance(self.m, (int, np.integer))):
            raise ValidationError("n and m must be integers")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
        if self.n < 1 or self.m < self.n:
            raise ValidationError(f"need m >= n >= 1, got n={self.n}, m={self.m}")
        if self.kappa <= 0 or self.gamma <= 0:
            raise ValidationError("kappa and gamma must be positive")

    @classmethod
    def bru(cls, n, m):
        """Normalization with kappa^2 = m/2, gamma = 1/2: eigenvalues/m follow
        the canonical clock directly (space scale 1/m, time scale 1)."""
        return cls(n, m, math.sqrt(m / 2.0), 0.5)

    @property
    def space_scale(self):
        return self.gamma / self.kappa**2

    @property
    def time_scale(self):
        return 2.0 * self.gamma

    def induced_model(self):
        """Canonical particle parameters carried by the spectrum.

        delta = (m - n + 1)/2 is below 1 when m <= n + 1, outside the
        certified interacting regime, so the params are built allow_weak.
        """
        return ModelParams(self.n, self.m / 2.0, 1.0, allow_weak=True)


def _matrix_stack(M, params, rng):
    """(stack, sources): M as a validated (r, n, m) float array and its
    random sources as a list of r.

    M is an (r, n, m) stack or one n x m matrix, a stack of one.  rng is a
    list or tuple of r sources, or, when r = 1, one bare source.
    """
    a = np.asarray(M, dtype=float)
    if a.ndim == 2:
        a = a[None]
    elif a.ndim != 3:
        raise DomainError("matrix state must be two-dimensional, or a stack of matrices")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    if a.shape[1:] != (params.n, params.m):
        raise DomainError(
            f"matrix shape {a.shape[1:]} does not match params ({params.n}, {params.m})"
        )
    r = a.shape[0]
    sources = list(rng) if isinstance(rng, (list, tuple)) else [rng]
    if len(sources) != r:
        raise DomainError(f"a stack of {r} matrices needs {r} random sources, got {len(sources)}")
    return a, sources


def rect_ou_transition(M0, t, params, rng):
    """Exact transition of the matrix flow over time t (matrix clock).

    M0 is an (r, n, m) stack with a list or tuple of r sources, or one
    n x m matrix, a stack of one, whose source may also come bare.  Returns
    an (r, n, m) array.  Matrix k draws its noise from source k alone, so
    each matrix of a stack gets the bits a stack of one would give.
    """
    M, sources = _matrix_stack(M0, params, rng)
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"t must be nonnegative, got {t}")
    if t == 0:
        out = M.copy()
    else:
        decay = math.exp(-params.gamma * t)
        var = params.kappa**2 * (-math.expm1(-2.0 * params.gamma * t)) / (2.0 * params.gamma)
        noise = np.empty(M.shape)
        for src, slab in zip(sources, noise):
            _coerce_generator(src).standard_normal(out=slab)
        noise *= math.sqrt(var)
        out = decay * M
        out += noise
        if not np.all(np.isfinite(out)):
            raise DomainError("matrix entries must be finite")
    return out


def spectral_projection(M):
    """Ordered eigenvalues of M M^T for each matrix of an (r, n, m) stack,
    as an (r, n) array; one n x m matrix is a stack of one.

    Tiny negative eigenvalues from roundoff are clipped to zero; anything
    materially negative, on the scale of its own matrix, or non-finite
    raises EigenFailure.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim == 2:
        A = A[None]
    elif A.ndim != 3:
        raise DomainError("expected a matrix or a stack of matrices")
    try:
        w = np.linalg.eigvalsh(A @ A.swapaxes(-1, -2))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"symmetric eigensolver failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise EigenFailure("eigensolver produced non-finite eigenvalues")
    scale = np.maximum(1.0, np.max(np.abs(w), axis=-1, keepdims=True))
    if np.any(w < -1e-8 * scale):
        raise EigenFailure(f"materially negative eigenvalue {np.min(w):.3e} from a Gram matrix")
    return np.maximum(np.sort(w, axis=-1), 0.0)


def matrix_dl_path(M0, times, params, rng, canonical=False):
    """Exact matrix transitions chained along a grid, projected to spectra.

    M0 and rng are as in rect_ou_transition: an (r, n, m) stack with a list
    or tuple of r sources, one per replica, or one n x m matrix, a stack of
    one, with a one-element list or a bare source.  Returns an array of
    shape (len(times), r, n), as dl_paths_batch does.  Replica k draws from
    source k alone, so it gets the bits a stack of one would give.

    With canonical=False states carry the raw eigenvalues of M M^T on the
    matrix clock (so sum of coordinates equals the squared Frobenius norm).
    With canonical=True the grid is read in canonical time units and states
    are scaled by space_scale, making them comparable to the canonical
    system with the induced parameters.
    """
    times = _validate_times(times)
    M, sources = _matrix_stack(M0, params, rng)
    gens = [_coerce_generator(src) for src in sources]
    wall = times / params.time_scale if canonical else times
    out = np.empty((times.size, M.shape[0], params.n))
    t_prev = 0.0
    for k, tw in enumerate(wall):
        if tw > t_prev:
            M = rect_ou_transition(M, tw - t_prev, params, gens)
        t_prev = tw
        out[k] = spectral_projection(M)
    if canonical:
        out *= params.space_scale
    return out
