"""Distances between laws: intrinsic Wasserstein, closed forms, witnesses.

``wasserstein_intrinsic`` couples two equal-size empirical clouds under the
intrinsic metric by an exact optimal assignment.  Its cost matrix is built
one coordinate at a time, in 2-D passes added left to right, so no
difference tensor over all coordinates is ever held; and a point mass on
either side, where every bijection is optimal, takes the mean of one row or
column instead of a solver call.  Every solve is warm-started: the solver
runs on the cost less a row potential from the Gaussian optimal map between
the clouds (_row_potential), less column and then row minima.  Subtracting
a number from a whole row or column moves every bijection's total by the
same constant, so the optimal assignments stay the optimal ones, and the
value is read off the unreduced costs; the solver's search starts near its
end instead of from zero potentials.
``ou_closed_form_distances`` evaluates the closed-form KL, chi-square-based
L2 and Euclidean W2 distances between a rectangular Ornstein-Uhlenbeck flow
started at a point and its Gaussian equilibrium.  ``tv_threshold_witness``
and ``kl_projected_estimate`` are one-dimensional sample-based estimators
used on projected statistics.

Importing this module loads no scipy: ``linear_sum_assignment``,
``digamma`` and ``ndtr`` are bound as module attributes the
first time they are looked up (PEP 562), so only the modes that use them pay
for importing ``scipy.optimize`` or ``scipy.special``.  A bare name inside a
function never reaches the module ``__getattr__``, so code here reads them as
attributes of ``_this``, the module itself.  After the first lookup that is a
plain module global, the same one a patch of the module attribute replaces.
"""

from dataclasses import dataclass, field
import importlib
import math
import sys

import numpy as np

from .errors import (
    DomainError,
    EmptySample,
    SizeMismatch,
    UnnormalizedReference,
)
from .model import check_states

_this = sys.modules[__name__]

_SCIPY_FUNCTIONS = {
    "linear_sum_assignment": "scipy.optimize",
    "digamma": "scipy.special",
    "ndtr": "scipy.special",
}


def __getattr__(name):
    """Import a scipy function on first access and keep it as a module global."""
    source = _SCIPY_FUNCTIONS.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    fn = getattr(importlib.import_module(source), name)
    globals()[name] = fn
    return fn


@dataclass
class DistanceEstimate:
    """A single distance value with provenance.

    kind: one of TV | KL | L2 | Wg1 | Wg2.
    method: closed-form | assignment | threshold-witness | knn.
    stderr is 0.0 for deterministic evaluations.
    """

    kind: str
    value: float
    stderr: float
    method: str
    t: float = None
    extras: dict = field(default_factory=dict)


class EmpiricalMeasure:
    """A uniformly weighted cloud of configurations (rows are atoms).

    Atoms are points of the closed Weyl chamber, and model.check_states
    checks them: finite, nonnegative and weakly ascending.  A 1-D input is a
    cloud of one-coordinate atoms, and atoms may have no coordinates.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        a = np.asarray(atoms, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if a.ndim != 2 or a.shape[0] == 0:
            raise EmptySample("empirical measure needs at least one atom")
        if a.shape[1]:
            check_states(a)
        self.atoms = a

    @property
    def size(self):
        return self.atoms.shape[0]


def _as_measure(obj):
    return obj if isinstance(obj, EmpiricalMeasure) else EmpiricalMeasure(obj)


# Doubles of the (rows, rb) arrays _intrinsic_cost holds at once for one
# block of rows: its slice of the output and one scratch array.
_COST_BLOCK = 2**21


def _block_rows(rb):
    """Rows of a's cloud per block of _intrinsic_cost against rb columns: the
    block's two (rows, rb) arrays hold at most _COST_BLOCK doubles."""
    return max(1, _COST_BLOCK // (2 * rb))


def _squared_gap(ua_k, ub_k, out):
    """out[i, j] = (ua_k[i] - ub_k[j])**2, one coordinate's term."""
    np.subtract(ua_k[:, None], ub_k, out=out)
    return np.multiply(out, out, out=out)


def _intrinsic_cost(a, b):
    """Matrix of intrinsic distances |2 sqrt(u) - 2 sqrt(v)| between the atoms
    of a (rows) and b (columns).

    Each coordinate is one 2-D pass over (rows, columns): the first writes
    its squared gap into the output, each further one adds its own from one
    scratch array, left to right, and a last pass takes the square root in
    place.  So the (rows, columns, n) difference tensor is never built, and
    an entry agrees with sqrt(np.sum(diff**2, axis=2)) over it to rounding,
    and to the bit below 8 coordinates, where numpy's pairwise sum adds left
    to right too.  Rows go a block of _block_rows at a time, so the working
    set stays within _COST_BLOCK doubles at any size.  Atoms of no
    coordinates give a zero matrix.
    """
    ua = np.ascontiguousarray((2.0 * np.sqrt(a.atoms)).T)
    ub = np.ascontiguousarray((2.0 * np.sqrt(b.atoms)).T)
    n, ra = ua.shape
    rb = ub.shape[1]
    if n == 0:
        return np.zeros((ra, rb))
    cost = np.empty((ra, rb))
    step = _block_rows(rb)
    scratch = np.empty((min(step, ra), rb))
    for i in range(0, ra, step):
        block = cost[i : i + step]
        gap = scratch[: len(block)]
        _squared_gap(ua[0, i : i + step], ub[0], block)
        for k in range(1, n):
            block += _squared_gap(ua[k, i : i + step], ub[k], gap)
        np.sqrt(block, out=block)
    return cost


ASSIGNMENT_LIMIT = 4000


def _assignment_problem(a, b, order):
    """The matrix of intrinsic costs raised to the given order and the row
    potential that warm-starts its solve (_row_potential at order 2, zero
    at order 1), after the checks exact assignment needs: one dimension,
    order 1 or 2, equal sizes and a size within ASSIGNMENT_LIMIT.  The cost
    is squared in place, so one matrix of r x r doubles is held."""
    a, b = _as_measure(a), _as_measure(b)
    if a.atoms.shape[1] != b.atoms.shape[1]:
        raise SizeMismatch("clouds live in different dimensions")
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order}")
    if a.size != b.size:
        raise SizeMismatch(
            f"exact assignment needs equal cloud sizes, got {a.size} and {b.size}"
        )
    if a.size > ASSIGNMENT_LIMIT:
        raise DomainError(
            f"cloud size {a.size} above assignment limit {ASSIGNMENT_LIMIT}"
        )
    cost = _intrinsic_cost(a, b)
    if order == 1:
        return cost, np.zeros(a.size)
    return np.square(cost, out=cost), _row_potential(a, b)


def _row_potential(a, b):
    """Row potential phi_i of the squared intrinsic cost from the Gaussian
    optimal map between the clouds' coordinate-wise means and spreads.

    In u = 2 sqrt(x), with d_i = u_i - m_u and s_k = sd_v,k / sd_u,k (1
    where sd_u,k = 0), the map u -> m_v + s (u - m_u) is the gradient of a
    convex potential, and phi_i = 2 d_i . (m_u - m_v) + sum_k (1 - s_k) d_ik^2
    is the matching dual potential of |u - v|^2 up to a constant (Knott &
    Smith 1984).  Between Gaussian laws with independent coordinates it is
    exact; between clouds it is a guess, and a poor guess costs only solver
    time, since any row potential leaves the optimal assignments where they
    are.  It is built on the centred d_i, so its entries are of the size of
    the costs.
    """
    ua, ub = 2.0 * np.sqrt(a.atoms), 2.0 * np.sqrt(b.atoms)
    mu = ua.mean(axis=0)
    d = ua - mu
    sd_u, sd_v = ua.std(axis=0), ub.std(axis=0)
    s = np.divide(sd_v, sd_u, out=np.ones_like(sd_u), where=sd_u > 0)
    return np.sum(d * (2.0 * (mu - ub.mean(axis=0)) + (1.0 - s) * d), axis=1)


def _assignment_value(cost_pow, order, phi):
    """Wasserstein distance of the given order from the matrix of costs raised
    to that order, by an exact optimal assignment warm-started from the row
    potential phi.

    The solver runs on cost_pow - phi_i, less its column minima, then less
    its row minima.  Each step subtracts one number from a whole row or a
    whole column, so every bijection's total moves by the same constant and
    the optimal ones stay optimal; with near-optimal potentials the reduced
    matrix is close to the optimal dual slack, and the solver's
    shortest-augmenting-path search starts close to its end (Jonker &
    Volgenant 1987).  The value is read off cost_pow itself at the returned
    assignment, in row order, so where the solver returns the assignment it
    returns unreduced, the value has the same bits.  Where several
    assignments are optimal (duplicated atoms), it may return another, whose
    value agrees to rounding.  The reduced copy is the one r x r array the
    solve adds.

    When every row is equal (a point mass on the first side), every
    bijection costs the same, so the value is mean(row 0) ** (1/order) and no
    solver runs; the same holds over column 0 when every column is equal (a
    point mass on the second side).  That mean adds the costs in index
    order rather than in the solver's, so it can differ from the solver's
    value in the last bits.  The first row and column are compared before
    the whole matrix, so a matrix that is not tied costs two passes of one
    row.
    """
    first = cost_pow[0]
    if (cost_pow[:, 0] == first[0]).all() and (cost_pow == first).all():
        return float(np.mean(first)) ** (1.0 / order)
    if (first == first[0]).all() and (cost_pow == cost_pow[:, :1]).all():
        return float(np.mean(cost_pow[:, 0])) ** (1.0 / order)
    reduced = np.subtract(cost_pow, phi[:, None])
    reduced -= reduced.min(axis=0)
    reduced -= reduced.min(axis=1)[:, None]
    rows, cols = _this.linear_sum_assignment(reduced)
    return float(np.mean(cost_pow[rows, cols])) ** (1.0 / order)


def wasserstein_intrinsic(a, b, order=2):
    """Wasserstein distance of the given order under the intrinsic metric,
    between two equal-size clouds, by an exact optimal assignment."""
    cost_pow, phi = _assignment_problem(a, b, order)
    value = _assignment_value(cost_pow, order, phi)
    return DistanceEstimate(kind=f"Wg{order}", value=value, stderr=0.0, method="assignment")


def _w2_with_blocks(a, b, blocks):
    """W2 between two equal-size clouds, and W2 between each pair of their
    diagonal row blocks: np.array_split's contiguous blocks, so no row is
    dropped, and block k of a pairs with block k of b.

    Every value comes from the one cost matrix: a block's is the exact
    assignment on its diagonal sub-block, which holds, entry for entry, the
    costs a build on the block clouds would give, warm-started from the
    full clouds' row potential restricted to the block's rows.  Returns
    (value, [block values]).
    """
    cost_sq, phi = _assignment_problem(a, b, 2)
    value = _assignment_value(cost_sq, 2, phi)
    # np.array_split's blocks: the first r % blocks hold one more row
    size, wide = divmod(len(phi), blocks)
    edges = [k * size + min(k, wide) for k in range(blocks + 1)]
    return value, [
        _assignment_value(cost_sq[lo:hi, lo:hi], 2, phi[lo:hi])
        for lo, hi in zip(edges, edges[1:])
    ]


def ou_closed_form_distances(p, t, z0_norm_sq):
    """Closed-form distances from equilibrium at time t of the matrix flow
    dZ = k dB - g Z dt with parameters p (a MatrixParams), started at a
    point z0 of squared norm z0_norm_sq; nm = n*m counts its entries.

    Returns a dict keyed KL, L2, W2 of DistanceEstimate values:

        2 KL(t) = (2g/k^2) |z0|^2 e^{-2gt} - nm e^{-2gt} - nm log(1 - e^{-2gt})
        L2(t)^2 = exp( (2g/k^2) |z0|^2 e^{-2gt} / (1 + e^{-2gt})
                       - (nm/2) log(1 - e^{-4gt}) ) - 1
        W2(t)^2 = |z0|^2 e^{-2gt} + nm (k^2/2g) (1 - sqrt(1 - e^{-2gt}))^2

    The printed variant (k for k^2 in the L2 exponent, the last W2 factor
    unsquared) is a transcription slip: the exponent must be dimensionless,
    and W2^2 between Gaussians squares the gap of their standard deviations.
    """
    if t <= 0 or not math.isfinite(t):
        raise DomainError(f"t must be positive, got {t}")
    if not 0 <= z0_norm_sq < math.inf:
        raise DomainError(f"z0_norm_sq must be finite and nonnegative, got {z0_norm_sq}")
    g, k2 = p.gamma, p.kappa**2
    nm = p.n * p.m
    e2 = math.exp(-2.0 * g * t)
    one_m_e2 = -math.expm1(-2.0 * g * t)
    kl = 0.5 * ((2.0 * g / k2) * z0_norm_sq * e2 - nm * e2 - nm * math.log(one_m_e2))
    l2_exp = (2.0 * g / k2) * z0_norm_sq * e2 / (1.0 + e2) - 0.5 * nm * math.log1p(-e2 * e2)
    l2_sq = math.expm1(l2_exp) if l2_exp < 700 else math.inf
    sqrt_term = 1.0 - math.sqrt(one_m_e2)
    w2_sq = z0_norm_sq * e2 + nm * (k2 / (2.0 * g)) * sqrt_term**2
    return {
        "KL": DistanceEstimate("KL", max(kl, 0.0), 0.0, "closed-form", t=t),
        "L2": DistanceEstimate(
            "L2", math.sqrt(l2_sq) if l2_sq != math.inf else math.inf, 0.0, "closed-form", t=t,
        ),
        "W2": DistanceEstimate(
            "Wg2", math.sqrt(w2_sq), 0.0, "closed-form", t=t, extras={"metric": "euclidean"},
        ),
    }


def _float_rules():
    """numpy's error state for Python float arithmetic: overflow gives inf,
    and inf - inf nan, without a warning.  Square roots stay outside it, so
    a wrong mask still warns."""
    return np.errstate(over="ignore", invalid="ignore")


def gaussian_tv(mu1, v1, v2):
    """Exact total variation between N(mu1, v1) and N(0, v2).

    mu1 may be an array of means, all against the one pair of variances;
    the result then has its shape, and a scalar mean gives a float.  Solved
    through the density crossing points, so each value is exact up to
    normal-CDF evaluation, and each entry has the bits it has alone.  A
    non-finite mean or variance raises DomainError.
    """
    mu = np.asarray(mu1, dtype=float)
    if not (math.isfinite(v1) and math.isfinite(v2) and np.all(np.isfinite(mu))):
        raise DomainError("means and variances must be finite")
    if v1 <= 0 or v2 <= 0:
        raise DomainError("variances must be positive")
    log_ratio = math.log(v1 / v2)
    a = 0.5 / v2 - 0.5 / v1
    # all="ignore": a v1 * v2 that underflows to 0 is caught below
    with np.errstate(all="ignore"):
        # mu**2 of a Python float is libm pow, which differs from mu * mu
        # in the last bit for about one value in a thousand; so does
        # float_power, which calls the same pow
        mu_sq = np.float_power(mu, 2.0)
        b = mu / v1
        c = -0.5 * mu_sq / v1 - 0.5 * log_ratio
        b2, ac4 = b * b, 4.0 * a * c
        disc = b2 - ac4
        # b^2 - 4ac cancels, in part or in full, once v2/v1 is large
        # (v2/v1 ~ 1e16 loses digits, ~1e18 all of them).  Exactly, it is
        # this sum of two nonnegative terms, which is 0 only for equal laws;
        # the roots then avoid -b + r.  Dividing by v1 and then by v2 keeps
        # it finite where v1 * v2 would overflow.
        disc_exact = (mu_sq + (v1 - v2) * log_ratio) / v1 / v2
    if not np.all(np.isfinite(mu_sq)):
        raise DomainError("means must be below 1.3e154 in size: their square overflows")
    if abs(a) < 1e-300:
        zero = b == 0.0
        with _float_rules():
            roots = [-c / np.where(zero, 1.0, b)]
    else:
        regular = (disc > 0) & (disc >= 0.5 * np.maximum(b2, np.abs(ac4)))
        if v1 * v2 == 0.0 and not np.all(regular):
            raise DomainError(f"variances {v1} and {v2} too small: their product underflows")
        zero = ~regular & (disc_exact <= 0)
        r = np.sqrt(np.where(regular, disc, 0.0))
        s = np.sqrt(np.where(regular | zero, 0.0, disc_exact))
        with _float_rules():
            q = -0.5 * (b + np.copysign(s, b))
            lo = np.where(regular, (-b - r) / (2.0 * a), q / a)
            hi = np.where(regular, (-b + r) / (2.0 * a), c / np.where(regular | zero, 1.0, q))
        swap = hi < lo  # sorted([lo, hi]), entry by entry
        roots = [np.where(swap, hi, lo), np.where(swap, lo, hi)]

    ndtr = _this.ndtr
    sd1, sd2 = math.sqrt(v1), math.sqrt(v2)
    with _float_rules():
        pts = [ndtr((x - mu) / sd1) - ndtr(x / sd2) for x in roots]
    total = np.abs(pts[0])
    for u, v in zip(pts, pts[1:]):
        total = total + np.abs(v - u)
    tv = np.where(zero, 0.0, 0.5 * (total + np.abs(pts[-1])))
    return float(tv) if tv.ndim == 0 else tv


def tv_threshold_witness(samples_p, samples_q):
    """Total-variation lower-bound witness from threshold events.

    The witness is the largest gap between the two empirical CDFs over all
    thresholds.  stderr carries a DKW 95 percent confidence half-width
    (a conservative penalty, not a standard error of an unbiased
    estimator).  A non-finite sample raises DomainError.
    """
    sp = np.asarray(samples_p, dtype=float).reshape(-1)
    sq = np.asarray(samples_q, dtype=float).reshape(-1)
    if sp.size == 0 or sq.size == 0:
        raise EmptySample("both sample sets must be nonempty")
    if not (np.all(np.isfinite(sp)) and np.all(np.isfinite(sq))):
        raise DomainError("samples must be finite")
    sp = np.sort(sp)
    sq = np.sort(sq)
    pooled = np.concatenate([sp, sq])
    fp = np.searchsorted(sp, pooled, side="right") / sp.size
    fq = np.searchsorted(sq, pooled, side="right") / sq.size
    value = float(np.max(np.abs(fp - fq)))
    dkw = math.sqrt(math.log(2.0 / 0.05) / (2.0 * sp.size)) + math.sqrt(
        math.log(2.0 / 0.05) / (2.0 * sq.size)
    )
    return DistanceEstimate("TV", value, dkw, "threshold-witness")


def _knn_distances(srt, k):
    """Distance from each entry of srt, sorted along its last axis, to its
    k-th nearest other entry of the same row, for 1 <= k < row size.

    The k nearest entries of srt[i] together with srt[i] fill a window
    [i - l, i + k - l] of the sorted order, so the distance is the minimum
    over l = 0..k of max(srt[i] - srt[i - l], srt[i + k - l] - srt[i]);
    windows that leave the sample do not count.  Every candidate is one of
    the differences a walk outward from i would take, so the result is the
    same to the bit, ties included.
    """
    n = srt.shape[-1]
    out = np.full(srt.shape, np.inf)
    lo, hi = srt[..., : n - k], srt[..., k:]
    for l in range(k + 1):
        mid = srt[..., l : n - k + l]
        d = np.maximum(mid - lo, hi - mid)
        np.minimum(out[..., l : n - k + l], d, out=out[..., l : n - k + l])
    return out


def kl_projected_estimate(samples, reference_log_density, reference_normalizer, k=3):
    """KL divergence of a one-dimensional sample law from a reference.

    Entropy is estimated with the Kozachenko-Leonenko k-nearest-neighbor
    estimator; the cross term averages the supplied unnormalized
    log-density and adds log(reference_normalizer).  stderr comes from a
    ten-way batch split of the full estimate, and is NaN when the estimate
    is infinite, e.g. for a sample that sits on a zero of the reference.
    The batches of one size are estimated together, as the rows of one
    array, with the bits each gets alone.  A non-finite sample raises
    DomainError.
    """
    s = np.asarray(samples, dtype=float).reshape(-1)
    if s.size == 0:
        raise EmptySample("samples must be nonempty")
    if s.size <= k + 1:
        raise EmptySample(f"need more than {k + 1} samples for the kNN entropy estimate")
    if not np.all(np.isfinite(s)):
        raise DomainError("samples must be finite")
    if (
        reference_normalizer is None
        or not math.isfinite(reference_normalizer)
        or reference_normalizer <= 0
    ):
        raise UnnormalizedReference(
            f"reference_normalizer must be a positive finite real, got {reference_normalizer}"
        )
    log_z = math.log(reference_normalizer)
    digamma = _this.digamma

    def _estimates(blocks):
        """The estimate of each row of a 2-D array of samples."""
        rows, n = blocks.shape
        srt = np.sort(blocks, axis=1)
        kk = min(k, n - 1)
        left = np.maximum(_knn_distances(srt, kk), 1e-300)
        entropy = np.mean(np.log(2.0 * left), axis=1) + digamma(n) - digamma(kk)
        flat = srt.reshape(-1)
        logq = np.asarray(reference_log_density(flat), dtype=float)
        if logq.shape != flat.shape:
            raise DomainError(
                f"reference_log_density returned shape {logq.shape} for {flat.shape} samples; "
                "it must evaluate an array elementwise"
            )
        cross = -np.mean(logq.reshape(rows, n), axis=1) + log_z
        return -entropy + cross

    value = float(_estimates(s[None, :])[0])
    n_batches = 10
    if s.size >= 20 * n_batches and math.isfinite(value):
        shuffled = s[np.random.default_rng(0).permutation(s.size)]
        # np.array_split's blocks: the first s.size % n_batches hold one more
        size, wide = divmod(s.size, n_batches)
        cut = wide * (size + 1)
        groups = (shuffled[:cut].reshape(wide, size + 1),
                  shuffled[cut:].reshape(n_batches - wide, size))
        vals = np.concatenate([_estimates(g) for g in groups if g.size])
        stderr = float(np.std(vals, ddof=1) / math.sqrt(n_batches))
    else:
        stderr = float("nan")
    return DistanceEstimate("KL", value, stderr, "knn")
