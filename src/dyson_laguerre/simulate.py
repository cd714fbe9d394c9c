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

route_params is the one rule that picks the Euler or the matrix route from
(n, alpha, beta, m) for every mode, and matrix_realization the one test of
whether a model (n, alpha, beta) is the spectrum of a matrix flow, whose
law callers then sample exactly instead of integrating.
There is one path driver per route, dl_paths_batch, matrix_dl_path and
(for pairs) coupling.run_coupled_batch.  Each takes start states, one (n,)
state repeated replicas times or (r, n) rows that model.check_states
accepts, and returns a (len(times), r, n) array.  A coordinate may be 0;
only the Euler scheme needs every start coordinate positive.  A matrix-flow
run starts each row from its aligned start matrix (aligned_start), built
block by block of replicas.  rect_ou_transition and spectral_projection
take (r, n, m) stacks, one n x m matrix being a stack of one.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import _kernels
from .errors import DomainError, EigenFailure, NumericError, UnsupportedRegime, ValidationError
from .model import ModelParams, _require_positive, check_states

DT_HALVING_LIMIT = 12

# matrix_dl_path advances and projects at most this many matrix entries at a
# time: one block of replicas, 512 KiB per working array
_MATRIX_BLOCK = 2**16


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
    array as it is, each row a state that check_states accepts."""
    x = check_states(x0)
    if x.ndim == 1:
        x = np.tile(x[None, :], (max(int(replicas), 0), 1))
    if x.shape[1] != params.n or x.shape[0] == 0:
        raise DomainError(f"start states must be ({params.n},) or (replicas >= 1, {params.n})")
    return x


def dl_paths_batch(x0, times, params, rng, replicas=1, dt=None):
    """Euler paths for a batch of replicas, observed on a shared time grid.

    x0 is one strictly positive ordered state, repeated replicas times, or
    an (r, n) array of per-row starts, as in run_coupled_batch.
    Returns an array of shape (len(times), r, n).
    """
    x0 = _start_rows(x0, params, replicas)
    _require_positive(x0, "an Euler start")
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


# numpy's Generator.poisson refuses a mean above this, with a ValueError
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


def cir_exact_transition(x0, t, alpha, rng):
    """Exact transition of the one-particle system started from x0.

    The time-t law given x0 is (1 - e^-t) * Gamma(alpha + K, 1) with
    K ~ Poisson(x0 e^-t / (1 - e^-t)); sampling goes through that mixture,
    which is exact and needs no special functions.  Accepts scalar or array
    x0 (one draw per entry).  A Poisson mean above numpy's limit (about
    9.2e18) raises DomainError before any draw.
    """
    if alpha <= 0 or not math.isfinite(alpha):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"t must be nonnegative, got {t}")
    x = np.asarray(x0, dtype=float)
    if not (np.all(x >= 0) and np.all(x < math.inf)):
        raise DomainError("x0 must be finite and nonnegative")
    if t == 0:
        return x.copy() if x.ndim else float(x)
    gen = _coerce_generator(rng)
    ec = math.exp(-t)
    c = -math.expm1(-t)
    lam = x * (ec / c)
    if not np.all(lam <= _POISSON_LAM_MAX):
        raise DomainError(
            f"x0 e^-t / (1 - e^-t) must be at most {_POISSON_LAM_MAX:.4g}, "
            f"got {np.max(lam):.4g}"
        )
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
        if not (0 < self.kappa < math.inf and 0 < self.gamma < math.inf):
            raise ValidationError(
                f"kappa and gamma must be finite and positive, got {self.kappa}, {self.gamma}"
            )

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

        delta = (m - n + 1)/2 is at most 1 when m <= n + 1, outside the
        certified interacting regime, so the params are built allow_weak.
        """
        return ModelParams(self.n, self.m / 2.0, 1.0, allow_weak=True)


def route_params(n, alpha=None, beta=None, m=None):
    """The route rule: (params, matrix) for n particles and the config's
    alpha, beta and m, where a key left out is None.

    Given alpha, the Euler route: params = ModelParams(n, alpha, beta), beta
    defaulting to 1, and matrix None; m is not read.  Otherwise the matrix
    route: matrix = MatrixParams.bru(n, m), m defaulting to n, and params its
    induced model, which is built allow_weak.  That flow realizes beta = 1
    only, so a beta other than 1 there raises UnsupportedRegime.  Each mode
    accepts the routes it implements and raises UnsupportedRegime for the
    other.
    """
    if alpha is not None:
        return ModelParams(n, float(alpha), float(1.0 if beta is None else beta)), None
    if beta is not None and float(beta) != 1.0:
        raise UnsupportedRegime(
            f"without alpha the route rule takes the matrix route, whose spectrum has "
            f"beta = 1; got beta = {beta} (give alpha for the Euler route)"
        )
    mp = MatrixParams.bru(n, n if m is None else int(m))
    return mp.induced_model(), mp


def matrix_realization(params):
    """The matrix flow whose canonical spectrum is exactly the gas of params,
    or None: MatrixParams.bru(n, m) when beta = 1 and m = 2 alpha is an
    integer, the one test of realizability.  Then m >= n, since delta =
    (m - n + 1)/2 > 0.  Its paths come from matrix_dl_path, with no step and
    no bias.
    """
    m = 2.0 * params.alpha
    if params.beta != 1.0 or not m.is_integer():
        return None
    return MatrixParams.bru(params.n, int(m))


def aligned_start(rows, matrix):
    """Start matrices whose canonical spectra are the start rows: for each
    row x of the (r, n) array rows the n x m matrix diag(sqrt(m x)), zero
    off the diagonal, so its singular vectors are the coordinate axes.  The
    factor m undoes the space scale 1/m of MatrixParams.bru.  Returns an
    (r, n, m) stack; coordinates may be 0.
    """
    x = check_states(rows)
    if x.ndim != 2 or x.shape[1] != matrix.n:
        raise DomainError(f"start rows must be (r, {matrix.n})")
    out = np.zeros(x.shape + (matrix.m,))
    diag = np.arange(matrix.n)
    out[:, diag, diag] = np.sqrt(matrix.m * x)
    return out


def rect_ou_transition(M0, t, params, rng):
    """Exact transition of the matrix flow over time t (matrix clock).

    M0 is an (r, n, m) stack, or one n x m matrix, a stack of one; rng is
    one random source for the whole stack (a Generator, an RngStream or an
    int).  Returns an (r, n, m) array.  The noise is one standard_normal
    draw of the stack's shape, so matrix k's bits depend on the matrices
    before it in the stack.
    """
    M = np.asarray(M0, dtype=float)
    if M.ndim == 2:
        M = M[None]
    elif M.ndim != 3:
        raise DomainError("matrix state must be two-dimensional, or a stack of matrices")
    # min and max propagate NaN and need no mask as large as the stack
    if M.size and not (math.isfinite(M.min()) and math.isfinite(M.max())):
        raise DomainError("matrix entries must be finite")
    if M.shape[1:] != (params.n, params.m):
        raise DomainError(
            f"matrix shape {M.shape[1:]} does not match params ({params.n}, {params.m})"
        )
    gen = _coerce_generator(rng)
    if t < 0 or not math.isfinite(t):
        raise DomainError(f"t must be nonnegative, got {t}")
    if t == 0:
        out = M.copy()
    else:
        decay = math.exp(-params.gamma * t)
        var = params.kappa**2 * (-math.expm1(-2.0 * params.gamma * t)) / (2.0 * params.gamma)
        out = gen.standard_normal(M.shape)
        out *= math.sqrt(var)
        out += decay * M
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
    # eigvalsh returns each matrix's eigenvalues in ascending order
    return np.maximum(w, 0.0)


def matrix_dl_path(x0, times, matrix, rng, replicas=1):
    """Exact matrix-flow paths from start states, projected to canonical
    spectra on the canonical clock.

    x0 is read as dl_paths_batch reads it (a coordinate may be 0), and each
    row starts from its aligned start matrix; rng is one random source, as
    in rect_ou_transition.  Returns the eigenvalues of M M^T scaled by
    space_scale on a grid in canonical time units, an array of shape
    (len(times), r, n).

    Replicas run in blocks of at most _MATRIX_BLOCK matrix entries (one
    replica when n*m exceeds it): each block builds its aligned starts and
    walks the whole grid before the next starts, so only the result grows
    with r.  Each block draws its noise with one standard_normal call of
    the block's shape per grid step, so a replica's bits depend on (n, m,
    r), not on its index alone.
    """
    x0 = _start_rows(x0, matrix, replicas)
    times = _validate_times(times)
    gen = _coerce_generator(rng)
    wall = times / matrix.time_scale
    out = np.empty((times.size,) + x0.shape)
    per = max(1, _MATRIX_BLOCK // (matrix.n * matrix.m))
    for lo in range(0, x0.shape[0], per):
        block = aligned_start(x0[lo:lo + per], matrix)
        t_prev = 0.0
        for k, tw in enumerate(wall):
            if tw > t_prev:
                block = rect_ou_transition(block, tw - t_prev, matrix, gen)
            t_prev = tw
            out[k, lo:lo + per] = spectral_projection(block)
    out *= matrix.space_scale
    return out
