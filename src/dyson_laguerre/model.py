"""Core model objects: parameters, the state check, test functions, drift and
generator.

The particle system lives on the closed Weyl chamber
``0 <= x_1 <= ... <= x_n``.  A state is a plain (n,) float array and a
cloud of states an (r, n) one; check_states is the one check every entry
point puts them through, transport.EmpiricalMeasure's clouds included.
Every further input rule is one private function here that each entry
point needing it calls: _one_state (one state of n coordinates),
_require_arity, _require_positive, _require_separated, and _sqrt_state,
the one check of a square-root state.  Coordinate i feels the drift

    b_i(x) = alpha - x_i + (beta/2) * sum_{j != i} (x_i + x_j) / (x_i - x_j)

and the diffusion coefficient sqrt(2 x_i).  The generator acting on a smooth
test function f is

    G f = sum_i x_i d2f/dx_i^2 + sum_i b_i df/dx_i

and its carre du champ is Gamma(f) = sum_i x_i (df/dx_i)^2.

Square-root coordinates y_i = 2 sqrt(x_i) turn the state-dependent diffusion
into additive noise; ``edl_drift`` supplies the transformed drift.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import CollisionError, DomainError, ValidationError
from . import _kernels


def collision_tol(x):
    """Absolute tolerance below which two coordinates count as collided."""
    x = np.asarray(x, dtype=float)
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    return 1e-12 * (1.0 + scale)


@dataclass(frozen=True)
class ModelParams:
    """Parameters (n, alpha, beta) of the canonical interacting gas.

    The derived quantity delta = alpha - (n-1)*beta/2 must exceed 1 in the
    interacting regime beta >= 1; beta = 0 only needs alpha > 0.  Weaker
    parameter sets (delta in (0, 1]) can be constructed with
    ``allow_weak=True`` for experiments that knowingly leave the certified
    regime.  ``MatrixParams.induced_model()`` builds its params this way,
    as the matrix flow realizes the gas exactly for every m >= n, and the
    CLI's matrix route carries them into modes that sample that flow and
    integrate nothing.
    """

    n: int
    alpha: float
    beta: float
    allow_weak: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValidationError(f"n must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not math.isfinite(self.alpha) or not math.isfinite(self.beta):
            raise ValidationError("alpha and beta must be finite")
        if self.beta < 0:
            raise ValidationError(f"beta must be nonnegative, got {self.beta}")
        if self.beta == 0.0:
            if self.alpha <= 0:
                raise ValidationError("beta = 0 requires alpha > 0")
            return
        if self.allow_weak:
            if self.delta <= 0:
                raise ValidationError(
                    f"delta = {self.delta} must be positive even with allow_weak"
                )
            return
        if self.beta < 1:
            raise ValidationError(
                f"interacting regime requires beta >= 1, got beta = {self.beta}"
            )
        if self.delta <= 1:
            raise ValidationError(
                f"delta = alpha - (n-1)*beta/2 = {self.delta} must exceed 1 "
                f"(n={self.n}, alpha={self.alpha}, beta={self.beta})"
            )

    @property
    def delta(self):
        return self.alpha - (self.n - 1) * self.beta / 2.0

    @property
    def phi_mean(self):
        """Equilibrium mean of the raw statistic sum(x_i); equals n*alpha."""
        return self.n * self.alpha


def check_states(x):
    """x as a float array of one state (n,) or a stack of states (r, n).

    A state is a point of the closed Weyl chamber: its coordinates are
    finite, nonnegative and weakly ascending, so equal and zero coordinates
    pass.  Raises DomainError for any other input, an empty one included.
    Strict ordering and positivity are checked at the point of use by the
    operations that need them.
    """
    a = np.asarray(x, dtype=float)
    if a.ndim not in (1, 2) or a.size == 0:
        raise DomainError(f"states must be a nonempty (n,) or (r, n) array, got shape {a.shape}")
    # one pass for valid input, the common case (NaN fails both
    # comparisons); the checks below name the failure
    if a.min() >= 0.0 and a.max() < math.inf and (a[..., 1:] >= a[..., :-1]).all():
        return a
    if not np.all(np.isfinite(a)):
        raise DomainError("state coordinates must be finite")
    if np.any(a < 0):
        raise DomainError("state coordinates must be nonnegative")
    raise DomainError("state coordinates must be in ascending order")


def _one_state(x, n):
    """x as one state of n coordinates: check_states, then the (n,) shape."""
    a = check_states(x)
    if a.shape != (n,):
        raise DomainError(f"state has shape {a.shape}, expected ({n},)")
    return a


def _require_arity(f, n):
    """Raise DomainError unless the polynomial f has n variables."""
    if f.nvars != n:
        raise DomainError(f"f has {f.nvars} variables, expected {n}")


def _require_positive(x, what):
    """Raise DomainError unless every coordinate of x is strictly positive;
    a formula with a log or a 1/x_i, and the Euler scheme's y = 2 sqrt(x),
    need it."""
    if not np.all(x > 0):
        raise DomainError(f"{what} needs strictly positive coordinates")


def _require_separated(x, beta, what="state"):
    """Raise CollisionError if an interacting drift would blow up at the
    ascending coordinates x: some gap is within collision_tol."""
    if beta > 0 and x.size > 1:
        gap = np.min(np.diff(x))
        if gap <= collision_tol(x):
            raise CollisionError(f"{what} has colliding coordinates (min gap {gap:.3e})")


def _sqrt_state(y, params):
    """y as one square-root state y = 2 sqrt(x) of params.n coordinates, in
    any order: finite, strictly positive, and (beta > 0) with squares that
    _require_separated keeps apart.  Raises DomainError, or CollisionError
    for squares too close."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != params.n:
        raise DomainError(f"y state has {y.size} coordinates, params expect {params.n}")
    if not np.all(np.isfinite(y)):
        raise DomainError("y coordinates must be finite")
    _require_positive(y, "a square-root state")
    _require_separated(np.sort(y**2), params.beta, what="squared y state")
    return y


class Polynomial:
    """Multivariate polynomial test function with exact partial derivatives.

    Coefficients are stored as a dict mapping exponent tuples to floats,
    e.g. {(0, 0): 1.0, (2, 1): -3.0} represents 1 - 3*x0^2*x1 in two
    variables.  Supports the algebra needed for the curvature checks:
    addition, multiplication, differentiation, evaluation.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars, coeffs):
        self.nvars = int(nvars)
        clean = {}
        for mono, c in coeffs.items():
            mono = tuple(int(e) for e in mono)
            if len(mono) != self.nvars:
                raise ValueError(
                    f"exponent tuple {mono} has length {len(mono)}, expected {self.nvars}"
                )
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = float(c)
            if c != 0.0:
                clean[mono] = clean.get(mono, 0.0) + c
        self.coeffs = {m: c for m, c in clean.items() if c != 0.0}

    @classmethod
    def _wrap(cls, nvars, coeffs):
        """Wrap a coefficient dict the package built itself, such as the
        result of this class's algebra.

        Its keys are distinct exponent tuples of length nvars with
        nonnegative int entries and its values are Python floats, so of the
        constructor's work only dropping the zero coefficients is left; the
        result, key order included, is what the constructor would give.
        Input from outside goes through the constructor.
        """
        poly = object.__new__(cls)
        poly.nvars = nvars
        poly.coeffs = {m: c for m, c in coeffs.items() if c != 0.0}
        return poly

    def _same_space(self, other):
        if other.nvars != self.nvars:
            raise ValueError(
                f"polynomials in {self.nvars} and {other.nvars} variables do not combine"
            )

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def coordinate(cls, nvars, i):
        mono = [0] * nvars
        mono[i] = 1
        return cls(nvars, {tuple(mono): 1.0})

    def degree(self):
        if not self.coeffs:
            return 0
        return max(sum(m) for m in self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.nvars, other)
        self._same_space(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return Polynomial._wrap(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._wrap(self.nvars, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            other = float(other)  # a numpy scalar factor still gives Python floats
            return Polynomial._wrap(self.nvars, {m: c * other for m, c in self.coeffs.items()})
        self._same_space(other)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0.0) + c1 * c2
        return Polynomial._wrap(self.nvars, out)

    __rmul__ = __mul__

    def diff(self, i):
        # distinct monomials stay distinct after lowering the same exponent
        out = {}
        for m, c in self.coeffs.items():
            e = m[i]
            if e:
                mm = list(m)
                mm[i] = e - 1
                out[tuple(mm)] = c * e
        return Polynomial._wrap(self.nvars, out)

    def _evaluate(self, x, walk):
        """walk(xs) for the coordinates x.

        For 1-D x, xs holds Python floats rather than numpy scalars: both
        powers call libm pow, so every value is the same to the bit.  Where
        a power overflows Python raises and numpy returns inf, so that case,
        like every other shape of x, walks x itself.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            try:
                return walk(x.tolist())
            except OverflowError:
                pass
        return walk(x)

    def _walk(self, xs, i=None):
        """Sum of the terms at xs, of this polynomial or, for an index
        0 <= i < nvars, of its partial derivative in x_i: the same products
        in the same order as diff(i)(xs), without building diff(i)."""
        total = 0.0
        for m, c in self.coeffs.items():
            if i is not None:
                d = m[i]
                if not d:
                    continue
                c = c * d
                m = m[:i] + (d - 1,) + m[i + 1 :]
            term = c
            for xk, e in zip(xs, m):
                if e:
                    term *= xk**e
            total += term
        return total

    def __call__(self, x):
        return self._evaluate(x, self._walk)

    def gradient(self, x):
        n = self.nvars
        return np.array(self._evaluate(x, lambda xs: [self._walk(xs, i) for i in range(n)]))

    def hessian(self, x):
        n = self.nvars

        def entries(xs):
            h = np.empty((n, n))
            for i in range(n):
                di = self.diff(i)
                for j in range(i, n):
                    h[i, j] = h[j, i] = di._walk(xs, j)
            return h

        return self._evaluate(x, entries)

    def __repr__(self):
        if not self.coeffs:
            return "Polynomial(0)"
        parts = []
        for m, c in sorted(self.coeffs.items()):
            vars_part = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(m) if e
            )
            parts.append(f"{c:g}*{vars_part}" if vars_part else f"{c:g}")
        return "Polynomial(" + " + ".join(parts) + ")"


def phi_polynomial(params):
    """The linear eigenfunction statistic phi_n(x) = sum_i x_i as a Polynomial."""
    n = params.n
    coeffs = {}
    for i in range(n):
        mono = [0] * n
        mono[i] = 1
        coeffs[tuple(mono)] = 1.0
    return Polynomial(n, coeffs)


@dataclass(frozen=True)
class ObservableResult:
    """The linear statistic phi at a state.

    phi_raw is sum(x_i); phi_centered subtracts the equilibrium mean
    n*alpha, which is also the squared equilibrium L2 norm of the centered
    statistic, reported as phi_l2norm_sq.
    """

    phi_raw: float
    phi_centered: float
    phi_l2norm_sq: float


def observable_phi(state, params):
    x = _one_state(state, params.n)
    raw = float(np.sum(x))
    mean = params.phi_mean
    return ObservableResult(phi_raw=raw, phi_centered=raw - mean, phi_l2norm_sq=mean)


def dl_drift(state, params):
    """Drift vector of the canonical system at an ordered state."""
    x = _one_state(state, params.n)
    _require_separated(x, params.beta)
    out = _kernels.dl_drift_batch(x[None, :], params.alpha, params.beta)
    return out[0]


def edl_drift(y_state, params):
    """Drift of the square-root system at y = 2 sqrt(x), componentwise

        (2*alpha - 1)/y_i - y_i/2 + (beta/y_i) * sum_{j != i} (y_i^2 + y_j^2)/(y_i^2 - y_j^2).
    """
    y = _sqrt_state(y_state, params)
    out = _kernels.edl_drift_batch(y[None, :], params.alpha, params.beta)
    return out[0]


def dl_drift_jacobian(state, params):
    """Exact Jacobian J[i, j] = d b_j / d x_i of the drift field.

        d b_i / d x_i = -1 - beta * sum_{k != i} x_k / (x_i - x_k)^2
        d b_j / d x_i =  beta * x_j / (x_i - x_j)^2   for i != j.
    """
    x = _one_state(state, params.n)
    _require_separated(x, params.beta)
    n = x.size
    beta = params.beta
    jac = np.zeros((n, n))
    for i in range(n):
        diag = -1.0
        for k in range(n):
            if k == i:
                continue
            d = x[i] - x[k]
            diag -= beta * x[k] / d**2
            jac[i, k] = beta * x[k] / d**2
        jac[i, i] = diag
    return jac


def apply_generator(f, state, params):
    """Evaluate (G f)(x) = sum_i x_i f_ii(x) + sum_i b_i(x) f_i(x)."""
    x = _one_state(state, params.n)
    _require_arity(f, params.n)
    b = dl_drift(state, params)
    total = 0.0
    for i in range(params.n):
        fi = f.diff(i)
        total += x[i] * fi.diff(i)(x) + b[i] * fi(x)
    return float(total)
