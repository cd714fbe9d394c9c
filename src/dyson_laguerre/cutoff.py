"""Cutoff predictions, witness bounds, the exact law of phi, and profile
experiments.

The linear statistic phi(x) = sum_i x_i is an exact eigenfunction carrier:
G phi = N - phi with N = n*alpha, Gamma(phi) = phi, so phi(X_t) is itself a
one-dimensional canonical square-root diffusion with shape N, for every
beta.  Its equilibrium pushforward is Gamma(N, 1) exactly.  All witness
formulas below live on that projection, and the profile runner reports
the exact TV and KL of its law, so it runs no integrator and draws no phi.
That law is evaluated on arrays: one pass covers every rung and grid time
of a profile, and each entry keeps the bits it has alone.

Mixing-time branch formulas for Ornstein-Uhlenbeck flows are transcribed
exactly as stated by their source; they are asymptotic cutoff locations,
not finite-n guarantees, and the profile machinery therefore reports them
as predictions next to measured values and certified bounds rather than
substituting them for either.
"""

from dataclasses import dataclass, field
import functools
import math
import warnings

import numpy as np

from .errors import DomainError, UnsupportedRegime
from .model import observable_phi
from .simulate import RngStream, route_params
from .transport import _log1m_exp, _scale_kl, gaussian_tv, ou_closed_form_distances

_KIND_ALIASES = {
    "TV": "TV",
    "KL": "KL",
    "L2": "L2",
    "W": "W",
    "W2": "W",
    "WG2": "W",
    "WASSERSTEIN": "W",
}


def _norm_kind(dist_kind):
    k = str(dist_kind).upper()
    if k not in _KIND_ALIASES:
        raise DomainError(f"unknown distance kind {dist_kind!r}")
    return _KIND_ALIASES[k]


def mixing_time_ou(dist_kind, p, z0_norm_sq):
    """Cutoff-time branch formulas for an OU flow with general coefficients.

    For dZ = sigma dB - theta Z dt in dimension N started at z0, with
    sigma = p.kappa, theta = p.gamma and |z0|^2 = z0_norm_sq,

        2 theta t = log(theta |z0|^2 / (4 sigma^2)) v log(N/4)        (TV)
        2 theta t = log(theta |z0|^2 / sigma^2)     v log(sqrt(N)/2)  (KL)
        2 theta t = log(2 theta |z0|^2 / sigma^2)   v log sqrt(N/2)   (L2)
        2 theta t = log(|z0|^2)  v  log sqrt(N sigma^2 / (8 theta))   (W)

    with N = p.n * p.m.  Only branches whose logarithm is positive stand:
    the start branch drops out from a centered start, and the dimensional
    branch where N is small (N < 4 for TV, say).  Where neither stands,
    DomainError names N, as no positive time is predicted.
    """
    kind = _norm_kind(dist_kind)
    if not 0 <= z0_norm_sq < math.inf:
        raise DomainError(f"z0_norm_sq must be finite and nonnegative, got {z0_norm_sq}")
    theta = p.gamma
    sigma_sq = p.kappa**2
    nn = float(p.n * p.m)
    z2 = z0_norm_sq
    if kind == "TV":
        args = (theta * z2 / (4.0 * sigma_sq), nn / 4.0)
    elif kind == "KL":
        args = (theta * z2 / sigma_sq, math.sqrt(nn) / 2.0)
    elif kind == "L2":
        args = (2.0 * theta * z2 / sigma_sq, math.sqrt(nn / 2.0))
    else:
        args = (z2, math.sqrt(nn * sigma_sq / (8.0 * theta)))
    logs = [math.log(a) for a in args if a > 1.0]
    if not logs:
        raise DomainError(f"{kind}: no branch has a positive logarithm at N = n*m = {nn:g} "
                          f"and |z0|^2 = {z2:g}")
    return max(logs) / (2.0 * theta)


@dataclass
class CutoffPrediction:
    """Bracket [c_lower, c_upper] for the critical time of one distance kind."""

    dist_kind: str
    c_lower: float
    c_upper: float
    source: dict
    flagged: bool = False
    flag_reason: str = None


def cutoff_predict(dist_kind, x0, params, matrix=None):
    """Predicted critical-time bracket for the system started at x0.

    The lower end combines the eigenfunction witness
    log(|phi_centered(x0)| / sqrt(N)) with the dimensional floor
    (1/2) log N, N = n*alpha.  Without matrix parameters the upper end is
    log(phi_raw) v log(N); with them the per-kind matrix-route estimates
    take over (phi/m v n for TV and so on).  A bracket whose lower end is
    nonpositive does not certify divergence: the prediction is returned
    flagged rather than raising.
    """
    kind = _norm_kind(dist_kind)
    return _cutoff_bracket(kind, observable_phi(x0, params), params, matrix)


def _cutoff_bracket(kind, obs, params, matrix):
    """cutoff_predict for a normalized kind, from phi at the start."""
    n_big = obs.phi_l2norm_sq
    lower_candidates = []
    if obs.phi_centered != 0.0:
        lower_candidates.append(
            (math.log(abs(obs.phi_centered) / math.sqrt(n_big)), "eigenfunction-witness")
        )
    lower_candidates.append((0.5 * math.log(n_big), "dimensional-floor"))
    c_lower, src_lower = max(lower_candidates)

    if matrix is None:
        upper_candidates = [(math.log(n_big), "dimensional-ceiling")]
        if obs.phi_raw > 0:
            upper_candidates.append((math.log(obs.phi_raw), "start-energy"))
        c_upper, src_upper = max(upper_candidates)
    else:
        m = matrix.m
        n = params.n
        if kind == "TV":
            branches = [(obs.phi_raw / m, "matrix-start"), (float(n), "matrix-dimension")]
        elif kind in ("KL", "L2"):
            branches = [(obs.phi_raw / m, "matrix-start"), (math.sqrt(n), "matrix-dimension")]
        else:
            branches = [
                (obs.phi_raw, "matrix-start"),
                (math.sqrt(n * m), "matrix-dimension"),
            ]
        cands = [(math.log(a), tag) for a, tag in branches if a > 0]
        c_upper, src_upper = max(cands)

    flagged = False
    reason = None
    if c_lower <= 0.0:
        flagged = True
        reason = (
            "lower-bound argument does not certify divergence "
            f"(c_lower = {c_lower:.4f} <= 0)"
        )
    if c_lower > c_upper:
        flagged = True
        reason = (reason + "; " if reason else "") + "bracket inverted, lower clamped"
        c_lower = c_upper
    return CutoffPrediction(
        dist_kind=kind,
        c_lower=float(c_lower),
        c_upper=float(c_upper),
        source={"lower": src_lower, "upper": src_upper},
        flagged=flagged,
        flag_reason=reason,
    )


def _check_time(t):
    if not np.all(np.greater_equal(t, 0)):
        raise DomainError(f"t must be nonnegative, got {t}")


def lb_l2_witness(x0, t, params):
    """Squared spectral witness (phi_centered(x0)^2 / N) e^{-2t}, a certified
    lower bound for the squared L2 distance from equilibrium at time t."""
    _check_time(t)
    return _lb_l2_witness(observable_phi(x0, params), t)


def _lb_l2_witness(obs, t):
    if obs.phi_centered == 0.0:
        return 0.0
    return (obs.phi_centered**2 / obs.phi_l2norm_sq) * math.exp(-2.0 * t)


def duhamel_variance(x0, t, params):
    """Variance of phi under the time-t law started at x0,

        Var = N (1 - e^{-t})^2 + 2 phi_raw(x0) (1 - e^{-t}) e^{-t},

    exact for every beta since phi projects to a closed one-dimensional
    diffusion.  A negative value (impossible for admissible inputs, kept as
    a diagnostic) is flagged with a warning, never raised."""
    _check_time(t)
    return _duhamel_variance(observable_phi(x0, params), t)


def _duhamel_variance(obs, t):
    c = -math.expm1(-t)
    val = obs.phi_l2norm_sq * c**2 + 2.0 * obs.phi_raw * c * math.exp(-t)
    if val < 0:
        warnings.warn(f"duhamel_variance returned {val} < 0", RuntimeWarning, stacklevel=3)
    return val


def tv_lower_bound_formula(x0, t, params):
    """Spectral total-variation lower bound at time t,

        TV >= 1 - 4 e^{2t} (N + Var_t(phi)) / phi_centered(x0)^2,

    clamped to [0, 1]; zero when the start is exactly centered."""
    _check_time(t)
    return _tv_lower_bound(observable_phi(x0, params), t)


def _tv_lower_bound(obs, t):
    if obs.phi_centered == 0.0:
        return 0.0
    spread = obs.phi_l2norm_sq + _duhamel_variance(obs, t)
    # the bound is 0 once the ratio 4 e^{2t} spread / phi_c^2 passes 1, which
    # logs tell without e^{2t}, as that overflows from t = 355
    if 2.0 * t + math.log(4.0 * spread) >= 2.0 * math.log(abs(obs.phi_centered)):
        return 0.0
    val = 1.0 - 4.0 * math.exp(2.0 * t) * spread / obs.phi_centered**2
    return min(max(val, 0.0), 1.0)


def lift_matrix_bounds(dist_kind, matrix_value, n, m):
    """Lift a matrix-flow distance to the projected particle system.

        TV:  min(nm * v, 1)
        KL:  nm * v
        L2:  sqrt((v^2 + 1)^{nm} - 1)   (+inf marker on overflow)
        W:   2 sqrt(n) * v    (per the contraction argument)

    For TV and KL, matrix_value is a per-entry distance; for L2 a
    per-entry L2 distance; for W the Euclidean W2 of the full matrix flow.
    """
    kind = _norm_kind(dist_kind)
    if matrix_value < 0 or not math.isfinite(matrix_value):
        raise DomainError(f"matrix_value must be a finite nonnegative real, got {matrix_value}")
    nm = n * m
    if kind == "TV":
        return min(nm * matrix_value, 1.0)
    if kind == "KL":
        return nm * matrix_value
    if kind == "L2":
        log_term = nm * math.log1p(matrix_value**2)
        if log_term > 700.0:
            return math.inf
        return math.sqrt(math.expm1(log_term))
    return 2.0 * math.sqrt(n) * matrix_value


def kl_upper_bound_chain(x0, t, eta, params):
    """Regularized KL bound at time t + eta,

        KL(Law(X_{t+eta}) | pi) <= (e^{-eta} / (1 - e^{-eta})) (phi_raw(x0) + N) e^{-t},

    combining the Wasserstein contraction up to time t with a
    transport-entropy regularization step of length eta > 0."""
    if not eta > 0:
        raise DomainError(f"eta must be positive, got {eta}")
    _check_time(t)
    return _kl_chain(observable_phi(x0, params), t, eta)


def _kl_chain(obs, t, eta):
    ratio = math.exp(-eta) / (-math.expm1(-eta))
    return ratio * (obs.phi_raw + obs.phi_l2norm_sq) * math.exp(-t)


# Zero-start closed forms.  From X_0 = 0 the gas at time t has the law of
# c * pi, c = 1 - e^{-t}, for every beta (the flow without its restoring
# drift is self-similar), and the density of c * pi against pi depends on x
# only through phi.  So the TV, KL and chi^2 of the whole particle law
# equal those of c * Gamma(N, 1) against Gamma(N, 1), N = n * alpha.


def _check_zero_start(n_big, t):
    if not (n_big > 0 and math.isfinite(n_big)):
        raise DomainError(f"shape N must be positive and finite, got {n_big}")
    if not t >= 0:
        raise DomainError(f"t must be nonnegative, got {t}")


def zero_start_tv(n_big, t):
    """Exact TV from equilibrium at time t of the gas started at 0: the two
    Gamma(N) densities, scales c and 1, cross once, at
    x* = N c log(c) / (c - 1), so TV = P(Gamma(N) < x*/c) - P(Gamma(N) < x*).
    At t = 0 the law is the point mass at 0 and the TV is 1."""
    _check_zero_start(n_big, t)
    if t == 0:
        return 1.0
    from scipy.special import gammainc

    u = math.exp(-t)
    if u == 0.0:
        return 0.0
    c = -math.expm1(-t)
    # log c, not log1p(-u): u = e^{-t} rounds to 1 below t = 1.1e-16
    xs = n_big * c * -math.log(c) / u
    return abs(float(gammainc(n_big, xs / c) - gammainc(n_big, xs)))


def zero_start_kl(n_big, t):
    """Exact KL from equilibrium at time t of the gas started at 0,

        KL = N (c - 1 - log c) = N sum_{k >= 2} e^{-kt} / k,   c = 1 - e^{-t},

    summed as the series once e^{-t} <= 1/2, where the closed form cancels.
    Infinite at t = 0."""
    _check_zero_start(n_big, t)
    if t == 0:
        return math.inf
    return n_big * _scale_kl(t)


def zero_start_chi2(n_big, t):
    """Exact chi^2 from equilibrium at time t of the gas started at 0,
    (1 - e^{-2t})^{-N} - 1, the square of the L2 distance; inf where it
    overflows, and at t = 0."""
    _check_zero_start(n_big, t)
    if t == 0:
        return math.inf
    exponent = -n_big * _log1m_exp(2.0 * t)
    return math.expm1(exponent) if exponent < 700 else math.inf


# The law of phi_t from phi_0 is c * Gamma(N + K), K ~ Poisson(lam), c = 1 - e^{-t},
# lam = phi_0 e^{-t} / c.  Against Gamma(N, 1) its log density
#     r(z) = -N log c - lam - b z + log 0F1(; N; lam z / c),   b = e^{-t} / c,
# is concave (log 0F1's slope is the decreasing Bessel ratio I_N(x) / (x I_{N-1}(x)),
# x = 2 sqrt(lam z / c)), so p > q on one interval.  The KL rule's span leaves out
# 1e-17 of the law; below N = 1/2 it is too wide for 128 nodes in log z, and above
# 1e8 in N or lam scipy's chndtr slows (NaN from about 1e11).  Six Debye terms give
# log I_nu within 3e-12 from order 30 on.
_LAW_SHAPE_MIN = 0.5
_LAW_MAX = 1e8
_DEBYE_ORDER = 30.0
_DEBYE_TERMS = 6


@functools.cache
def _legendre_rule():
    return np.polynomial.legendre.leggauss(128)


@functools.cache
def _debye_polynomials():
    """Row k: the coefficients in powers of p of Debye's u_k, k <= _DEBYE_TERMS,
    from u_0 = 1 and u_{k+1} = p^2 (1 - p^2) u_k' / 2
    + (1/8) int_0^p (1 - 5 s^2) u_k(s) ds (DLMF 10.41.9)."""
    Polynomial = np.polynomial.Polynomial
    u = [Polynomial([1.0])]
    for _ in range(_DEBYE_TERMS):
        u.append(Polynomial([0.0, 0.0, 0.5, 0.0, -0.5]) * u[-1].deriv()
                 + (Polynomial([1.0, 0.0, -5.0]) * u[-1]).integ() / 8.0)
    return np.array([np.pad(v.coef, (0, 3 * _DEBYE_TERMS + 1 - len(v.coef))) for v in u])


def _log_0f1(shape, a, width):
    """log 0F1(; N_i; a) for rows of arguments a >= 0 laid end to end in a
    flat array: row i holds width[i] of them and has shape N_i.  Here
    0F1(; N; a) = Gamma(N) a^{-nu/2} I_nu(2 sqrt(a)), nu = N - 1.

    From order 30 on, Debye's expansion of I_nu(nu z) (DLMF 10.41.3) and
    Stirling's series sigma(nu) for log Gamma(nu + 1) leave
    nu (w - 1 - log((1 + w)/2)) - log(w)/2 + log S(1/w) + sigma(nu),
    w = sqrt(1 + z^2), where nothing large cancels.  Below order 30, 17
    terms of sum_k a^k / (k! (N)_k) for a <= 1, else scipy's ive.  S is a
    matrix product per row, so each row has the bits it has alone.
    """
    from scipy.special import gammaln, ive

    n_big = np.repeat(shape, width)
    nu = n_big - 1.0
    out = np.empty_like(a)
    debye = nu >= _DEBYE_ORDER
    if debye.any():
        d_nu = nu[debye]
        z = 2.0 * np.sqrt(a[debye]) / d_nu
        w = np.sqrt(1.0 + z * z)
        d = z * z / (1.0 + w)
        polys = _debye_polynomials()
        # np.vander's powers of 1/w, built a power per pass rather than a point per pass
        powers = np.empty((polys.shape[1], len(w)))
        powers[0], powers[1:] = 1.0, 1.0 / w
        for j in range(2, len(powers)):
            powers[j] *= powers[j - 1]
        powers = powers.T.copy()
        rows = [(v, m) for v, m in zip((shape - 1.0).tolist(), width) if v >= _DEBYE_ORDER]
        terms, series, stop = {}, [], 0  # terms: nu -> (S's coefficients, sigma(nu))
        for v, m in rows:
            if v not in terms:
                terms[v] = (v ** -np.arange(_DEBYE_TERMS + 1.0) @ polys,
                            (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * v**2))
                                           / v**2) / v**2) / v)
            series.append(powers[stop:stop + m] @ terms[v][0])
            stop += m
        sigma = np.repeat([terms[v][1] for v, _ in rows], [m for _, m in rows])
        out[debye] = (d_nu * (d - np.log1p(0.5 * d)) - 0.5 * np.log(w)
                      + np.log(np.concatenate(series)) + sigma)
    if not debye.all():
        small = ~debye & (a <= 1.0)
        a_small, n_small, tail = a[small], n_big[small], 0.0
        for k in range(17, 0, -1):
            tail = a_small / (k * (n_small + k - 1.0)) * (1.0 + tail)
        out[small] = np.log1p(tail)
        big = ~debye & ~small
        a_big, n_ive = a[big], n_big[big]
        x = 2.0 * np.sqrt(a_big)
        out[big] = (gammaln(n_ive) - 0.5 * (n_ive - 1.0) * np.log(a_big)
                    + np.log(ive(n_ive - 1.0, x)) + x)
    return out


def phi_law_distances(x0, t, params):
    """Exact {"TV": .., "KL": ..} of the law of phi = sum_i x_i at time t
    from x0 against Gamma(N, 1), its equilibrium law.  t may be an array of
    times: the values are then arrays of its shape, each entry with the
    bits it has alone, and one pass evaluates them all.

    From phi(x0) = 0 they are zero_start_tv and zero_start_kl; at t = 0 the
    law is a point mass (TV 1, KL inf).  Elsewhere it is (c/2) times a
    noncentral chi-square with 2N degrees of freedom and noncentrality
    2 lam, c = 1 - e^{-t}, lam = phi(x0) e^{-t} / c: the TV sums the gaps of
    the two CDFs (chndtr, gammainc) at the densities' crossings, and the KL
    is a Gauss-Legendre rule.  N below 1/2, or N or lam above 1e8 at any
    time, raises DomainError before any work.
    """
    _check_time(t)
    obs = observable_phi(x0, params)
    tv, kl = _phi_law(obs.phi_l2norm_sq, obs.phi_raw, t)
    if np.ndim(t) == 0:
        return {"TV": float(tv), "KL": float(kl)}
    return {"TV": tv, "KL": kl}


def _phi_law(n_big, phi0, t):
    """phi_law_distances from shapes N, starts phi(x0) and times t, arrays
    that broadcast together: arrays (TV, KL) of their shape.

    Each entry's scalars are set up in Python floats, its KL rule is a row
    of one (entries, 128) node grid, and the Newton steps and CDFs run on
    the flat list of every row's crossings.  Sums stay per row, so each
    entry has the bits it has alone.
    """
    from scipy.special import chndtr, gammainc, gammaln

    entries = np.broadcast(n_big, phi0, t)
    tv, kl = np.empty(entries.shape), np.empty(entries.shape)
    flat_tv, flat_kl = tv.reshape(-1), kl.reshape(-1)
    law = []  # one row per entry off the closed forms
    for k, values in enumerate(entries):
        n_k, phi_k, t_k = map(float, values)
        if t_k == 0:
            flat_tv[k], flat_kl[k] = 1.0, math.inf
            continue
        e_k, c_k = math.exp(-t_k), -math.expm1(-t_k)
        lam_k = phi_k * e_k / c_k
        if lam_k == 0.0:  # from phi = 0, or e^{-t} underflows: the law is c * Gamma(N)
            flat_tv[k], flat_kl[k] = zero_start_tv(n_k, t_k), zero_start_kl(n_k, t_k)
            continue
        if not (_LAW_SHAPE_MIN <= n_k <= _LAW_MAX and lam_k <= _LAW_MAX):
            raise DomainError(
                f"the exact law of phi needs N in [{_LAW_SHAPE_MIN}, {_LAW_MAX:g}] and "
                f"phi(x0) e^-t / (1 - e^-t) <= {_LAW_MAX:g}; got N = {n_k:g}, {lam_k:g}"
            )
        # below y c, y <= 1/2, the law has mass at most e^{-lam/2} y^N / Gamma(N + 1)
        mean, sd = c_k * (n_k + lam_k), c_k * math.sqrt(n_k + 2.0 * lam_k)
        log_y = (math.log(1e-17) + gammaln(n_k + 1.0) + 0.5 * lam_k) / n_k
        lo = max(mean - 12.0 * sd, c_k * math.exp(min(log_y, -math.log(2.0))))
        s_lo, s_hi = math.log(lo), math.log(mean + 12.0 * sd + 40.0 * c_k)
        law.append((k, n_k, lam_k, c_k, e_k / c_k, -n_k * math.log(c_k) - lam_k,
                    s_lo, 0.5 * (s_hi - s_lo)))
    if not law:
        return tv, kl
    entry, nb, lam, c, b, r0, s_lo, half = (np.array(v) for v in zip(*law))
    lam_c = lam / c
    nodes, weights = _legendre_rule()
    s = s_lo[:, None] + half[:, None] * (nodes + 1.0)
    z = np.exp(s)
    r = r0[:, None] - b[:, None] * z + _log_0f1(nb, (lam_c[:, None] * z).ravel(),
                                                 [len(nodes)] * len(nb)).reshape(z.shape)
    p_dz = (np.exp((nb[:, None] - 1.0) * s - z - gammaln(nb)[:, None] + r + s)
            * (half[:, None] * weights))
    flat_kl[entry] = [max(float(p @ q), 0.0) for p, q in zip(p_dz, r)]

    # a crossing between nodes i and i + 1: linear in s, then two Newton
    # steps within the bracket.  One beyond the outer nodes is taken there,
    # which moves the CDF gap by at most the law's mass beyond them.
    pos = r > 0.0
    row, i = np.nonzero(pos[:, 1:] != pos[:, :-1])
    left, right = s[row, i], s[row, i + 1]
    root = left - r[row, i] * (right - left) / (r[row, i + 1] - r[row, i])
    # 0F1 at shapes N and N + 1 in one call: each row's crossings twice
    shapes, width = np.concatenate((nb, nb + 1.0)), np.bincount(row, minlength=len(nb)).tolist()
    x_lam_c, x_lam_cn, x_b, x_r0 = lam_c[row], lam[row] / (c[row] * nb[row]), b[row], r0[row]
    for _ in range(2):
        zr = np.exp(root)
        a = x_lam_c * zr
        both = _log_0f1(shapes, np.concatenate((a, a)), width * 2)
        log_f, log_f1 = both[:len(a)], both[len(a):]
        slope = zr * (x_lam_cn * np.exp(log_f1 - log_f) - x_b)
        root = np.clip(root - (x_r0 - x_b * zr + log_f) / slope, left, right)
    # each row's points in order: its first node if p > q there, its
    # crossings, its last node if p > q there
    first, last = np.flatnonzero(pos[:, 0]), np.flatnonzero(pos[:, -1])
    order = np.argsort(np.concatenate((first - 0.5, row, last + 0.5)), kind="stable")
    at = np.concatenate((first, row, last))[order]
    cross = np.concatenate((z[first, 0], np.exp(root), z[last, -1]))[order]
    gap = chndtr(2.0 * cross / c[at], 2.0 * nb[at], 2.0 * lam[at]) - gammainc(nb[at], cross)
    # the CDF gap is 0 at both ends of the line, so TV is half its total variation
    total, prev = [0.0] * len(nb), [0.0] * len(nb)
    for k, g in zip(at.tolist(), gap.tolist()):
        total[k] += abs(g - prev[k])
        prev[k] = g
    flat_tv[entry] = [min(0.5 * (tot + abs(g)), 1.0) for tot, g in zip(total, prev)]
    return tv, kl


@dataclass
class ProfileRow:
    n: int
    t: float
    kind: str
    value: float
    stderr: float
    bound_lower: float
    bound_upper: float
    c_pred_lower: float
    c_pred_upper: float


@dataclass
class CutoffProfile:
    """Measured distance profiles across an n ladder with bounds and
    predictions; rows are (n, absolute time, kind) records."""

    rows: list
    predictions: dict
    critical_times: dict
    route: str
    meta: dict = field(default_factory=dict)

    COLUMNS = (
        "n",
        "t",
        "kind",
        "value",
        "stderr",
        "bound_lower",
        "bound_upper",
        "c_pred_lower",
        "c_pred_upper",
    )

    def rows_for(self, n=None, kind=None):
        out = [
            r
            for r in self.rows
            if (n is None or r.n == n) and (kind is None or r.kind == kind)
        ]
        return sorted(out, key=lambda r: (r.n, r.kind, r.t))

    def tv_window(self, n, hi=0.9, lo=0.1):
        """Crossing times of the TV profile through hi and lo levels, with
        the width and its ratio to c_n.  t is interpolated linearly in
        g(v) = log ndtri((1 + v) / 2), in which the TV's limit shape
        2 Phi(e^{-w} / 2) - 1 at t = log(N) / 2 + w is linear, or in v where
        a bracket's value is exactly 0 or 1."""
        from scipy.special import ndtri

        rows = self.rows_for(n=n, kind="TV")
        if len(rows) < 2:
            raise DomainError(f"not enough TV rows for n={n}")
        ts = np.array([r.t for r in rows])
        vs = np.array([r.value for r in rows])

        def crossing(level):
            for i in range(len(ts) - 1):
                a, b = vs[i], vs[i + 1]
                if (a - level) * (b - level) <= 0 and a != b:
                    if 0.0 < min(a, b) and max(a, b) < 1.0:
                        a, b, level = np.log(ndtri((1.0 + np.array([a, b, level])) / 2.0))
                    return ts[i] + (level - a) * (ts[i + 1] - ts[i]) / (b - a)
            raise DomainError(f"TV profile never crosses level {level} on the grid (n={n})")

        t_hi = crossing(hi)
        t_lo = crossing(lo)
        cn = self.critical_times[n]
        return {"t_hi": t_hi, "t_lo": t_lo, "width": t_lo - t_hi, "ratio": (t_lo - t_hi) / cn}


# Upper bounds at t = 0, where the law is the point mass at the start.
_POINT_MASS_UPPER = {"TV": 1.0, "KL": math.inf, "L2": math.inf}


def _matrix_entry_tv_sum(x0, mp, t):
    """Sum of per-entry TVs for the matrix flow with parameters mp started at
    diag(sqrt(m x0)): a valid tensorization upper bound on the full matrix TV."""
    v_inf = mp.kappa**2 / (2.0 * mp.gamma)
    v_t = v_inf * (-math.expm1(-2.0 * mp.gamma * t))
    decay = math.exp(-mp.gamma * t)
    # entry 0 is the zero-mean entry, one of nm - n alike
    means = np.concatenate(([0.0], np.sqrt(mp.m * np.asarray(x0, dtype=float)) * decay))
    tvs = gaussian_tv(means, v_t, v_inf).tolist()
    total = (mp.n * mp.m - mp.n) * tvs[0]
    for tv in tvs[1:]:
        total += tv
    return total


def run_cutoff_profile(config):
    """Run a distance-to-equilibrium profile over an n ladder.

    config is a mapping with keys drawn from the flat run schema: n (int or
    list, default 16, 64, 128), m, alpha, beta, x0_preset (default zero),
    times (multipliers of the nominal critical time c_n, default 0.4 to 1.6
    by 0.1), distances (default TV, KL), seed (default 0).  replicas is not
    read.  A key whose value is None, and an empty n, times or distances
    (list or array), count as omitted.  Each rung takes its route from the
    one route rule, simulate.route_params, and the profile accepts both
    routes: given alpha, the Euler route with (n, alpha, beta), beta
    defaulting to 1; otherwise the matrix route on n x m matrices, m
    defaulting to the rung's n.

    Every kind reads only phi = sum_i x_i, a CIR process with shape
    N = n * alpha for every beta, so every value is exact and every stderr
    0: TV and KL are phi_law_distances, and L2 is its lower bound
    e^{-t} |phi(x0) - N| / sqrt(N), the shift of phi's mean in equilibrium
    standard deviations.  Every rung's start, phi there and c_n come first;
    the law of phi is then evaluated at every (rung, grid time) in one
    array pass, and a row has the bits it has in a profile of its rung and
    time alone.  Only an equilibrium-draw start is drawn, from the rung's
    own generator.  The routes differ in how the start and the model
    are built and in their upper bounds: the matrix flow's closed forms on
    the matrix route, the regularized KL chain on the Euler route.  Kinds
    TV, KL, L2; W raises UnsupportedRegime before any start or prediction,
    and a negative or non-finite time DomainError.  Each bound is evaluated
    only for the kinds requested.  At a grid time 0 the law is the point
    mass at the start, whose upper bounds are TV 1 and KL = L2 = inf.
    """
    from .equilibrium import build_x0  # local import to avoid a cycle

    config = {k: v for k, v in config.items() if v is not None}
    ladder = [int(v) for v in np.atleast_1d(config.get("n", ()))] or [16, 64, 128]
    rungs = [route_params(n, config.get("alpha"), config.get("beta"), config.get("m"))
             for n in ladder]
    route = "sde" if rungs[0][1] is None else "matrix"
    multipliers = np.asarray(config.get("times", ()), dtype=float)
    if multipliers.size == 0:
        multipliers = np.arange(0.4, 1.65, 0.1)
    kinds = [_norm_kind(k) for k in config.get("distances", ())] or ["TV", "KL"]
    if "W" in kinds:
        raise UnsupportedRegime(
            "profile distances support TV, KL, L2; use the coupling module "
            "for intrinsic Wasserstein decay"
        )
    if not np.all((multipliers >= 0) & (multipliers < math.inf)):
        raise DomainError(f"profile times must be finite and nonnegative, got {multipliers}")
    seed = int(config.get("seed", 0))
    preset = config.get("x0_preset", "zero")

    predictions = {}
    critical_times = {}
    meta = {"route": route, "x0_preset": preset, "seed": seed, "fallbacks": []}

    # every rung's start, phi at it and c_n first, then the law of phi at
    # every (rung, grid time) in one pass
    starts, scales = [], []
    for n_idx, (n, (params, mp)) in enumerate(zip(ladder, rungs)):
        gen = RngStream(seed, stream_id=1000 + n_idx).generator()
        x0, _ = build_x0(preset, params, gen)
        obs = observable_phi(x0, params)
        n_big = obs.phi_l2norm_sq

        preds = {k: _cutoff_bracket(k, obs, params, mp) for k in kinds}
        predictions[n] = preds
        tv_pred = preds["TV"] if "TV" in preds else _cutoff_bracket("TV", obs, params, mp)
        cn = tv_pred.c_upper
        if cn <= 0:
            cn = max(0.5 * math.log(n_big), 1.0)
            meta["fallbacks"].append(f"n={n}: nominal critical time floored to {cn:.3f}")
        critical_times[n] = cn
        starts.append((x0, obs, preds))
        scales.append(cn)

    abs_times = np.array(scales)[:, None] * multipliers
    if "TV" in kinds or "KL" in kinds:
        tv, kl = _phi_law(np.array([[obs.phi_l2norm_sq] for _, obs, _ in starts]),
                          np.array([[obs.phi_raw] for _, obs, _ in starts]), abs_times)

    rows = []
    for k, (n, (params, mp), (x0, obs, preds)) in enumerate(zip(ladder, rungs, starts)):
        # The route fixes the upper bound of each kind; a bound runs only
        # when its kind is requested.
        if route == "matrix":
            z0_sq = float(mp.m * obs.phi_raw)
            upper = {
                "TV": lambda t: min(_matrix_entry_tv_sum(x0, mp, t), 1.0),
                "KL": lambda t: ou_closed_form_distances(mp, t, z0_sq)["KL"].value,
                "L2": lambda t: ou_closed_form_distances(mp, t, z0_sq)["L2"].value,
            }
        else:
            def kl_chain(t):
                return _kl_chain(obs, 0.0, t)

            upper = {
                "TV": lambda t: min(math.sqrt(max(kl_chain(t), 0.0) / 2.0), 1.0),
                "KL": kl_chain,
                "L2": lambda t: math.inf,
            }

        for j, t_abs in enumerate(abs_times[k]):
            for kind in kinds:
                if kind == "TV":
                    value, b_lo = tv[k, j], _tv_lower_bound(obs, t_abs)
                elif kind == "KL":
                    value, b_lo = kl[k, j], 0.0
                else:
                    value = b_lo = math.sqrt(_lb_l2_witness(obs, t_abs))
                b_up = upper[kind](t_abs) if t_abs > 0 else _POINT_MASS_UPPER[kind]
                rows.append(
                    ProfileRow(
                        n=n,
                        t=float(t_abs),
                        kind=kind,
                        value=float(value),
                        stderr=0.0,
                        bound_lower=float(b_lo),
                        bound_upper=float(b_up),
                        c_pred_lower=preds[kind].c_lower,
                        c_pred_upper=preds[kind].c_upper,
                    )
                )
    return CutoffProfile(
        rows=rows,
        predictions=predictions,
        critical_times=critical_times,
        route=route,
        meta=meta,
    )
