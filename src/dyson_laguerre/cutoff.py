"""Cutoff predictions, witness bounds, zero-start closed forms, and profile
experiments.

The linear statistic phi(x) = sum_i x_i is an exact eigenfunction carrier:
G phi = N - phi with N = n*alpha, Gamma(phi) = phi, so phi(X_t) is itself a
one-dimensional canonical square-root diffusion with shape N, for every
beta.  Its equilibrium pushforward is Gamma(N, 1) exactly.  All witness
formulas below live on that projection, and the profile runner draws phi
from its exact transition law on both routes, so it runs no integrator.

Mixing-time branch formulas for Ornstein-Uhlenbeck flows are transcribed
exactly as stated by their source; they are asymptotic cutoff locations,
not finite-n guarantees, and the profile machinery therefore reports them
as predictions next to measured values and certified bounds rather than
substituting them for either.
"""

from dataclasses import dataclass, field
import math
import warnings

import numpy as np

from .errors import DomainError, UnsupportedRegime
from .model import observable_phi
from .simulate import RngStream, cir_exact_transition, route_params
from .transport import (
    gaussian_tv,
    kl_projected_estimate,
    ou_closed_form_distances,
    tv_threshold_witness,
)

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
    if not t >= 0:
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
    var_t = _duhamel_variance(obs, t)
    val = 1.0 - 4.0 * math.exp(2.0 * t) * (obs.phi_l2norm_sq + var_t) / obs.phi_centered**2
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
    xs = n_big * c * -math.log1p(-u) / u
    return abs(float(gammainc(n_big, xs / c) - gammainc(n_big, xs)))


def zero_start_kl(n_big, t):
    """Exact KL from equilibrium at time t of the gas started at 0,

        KL = N (c - 1 - log c) = N sum_{k >= 2} e^{-kt} / k,   c = 1 - e^{-t},

    summed as the series once e^{-t} <= 1/2, where the closed form cancels.
    Infinite at t = 0."""
    _check_zero_start(n_big, t)
    if t == 0:
        return math.inf
    u = math.exp(-t)
    if u > 0.5:
        return n_big * (-u - math.log1p(-u))
    total, power, k = 0.0, u * u, 2
    while power / k > 1e-17 * total:
        total += power / k
        power *= u
        k += 1
    return n_big * total


def zero_start_chi2(n_big, t):
    """Exact chi^2 from equilibrium at time t of the gas started at 0,
    (1 - e^{-2t})^{-N} - 1, the square of the L2 distance; inf where it
    overflows, and at t = 0."""
    _check_zero_start(n_big, t)
    if t == 0:
        return math.inf
    exponent = -n_big * math.log1p(-math.exp(-2.0 * t))
    return math.expm1(exponent) if exponent < 700 else math.inf


def _phi_reference_logpdf(n_big):
    """Normalized log-density of Gamma(N, 1), the equilibrium law of phi."""
    from scipy.special import gammaln

    lz = gammaln(n_big)

    def logpdf(z):
        z = np.asarray(z, dtype=float)
        out = np.where(z > 0, (n_big - 1.0) * np.log(np.maximum(z, 1e-300)) - z - lz, -np.inf)
        return out

    return logpdf


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
        """Crossing times of the TV witness through hi and lo levels by
        linear interpolation, with the width and its ratio to c_n."""
        rows = self.rows_for(n=n, kind="TV")
        if len(rows) < 2:
            raise DomainError(f"not enough TV rows for n={n}")
        ts = np.array([r.t for r in rows])
        vs = np.array([r.value for r in rows])

        def crossing(level):
            for i in range(len(ts) - 1):
                a, b = vs[i], vs[i + 1]
                if (a - level) * (b - level) <= 0 and a != b:
                    return ts[i] + (level - a) * (ts[i + 1] - ts[i]) / (b - a)
            raise DomainError(f"TV witness never crosses level {level} on the grid (n={n})")

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
    by 0.1), replicas (default 4000), distances (default TV, KL), seed
    (default 0).  A key whose value is None, and an empty n, times or
    distances (list or array), count as omitted.  Each rung takes its route
    from the one route rule, simulate.route_params, and the profile accepts
    both routes: given alpha, the Euler route with (n, alpha, beta), beta
    defaulting to 1; otherwise the matrix route on n x m matrices, m
    defaulting to the rung's n.

    Every kind reads only phi = sum_i x_i, and phi(X_t) is a CIR process
    with shape N = n * alpha for every beta.  So on both routes each rung
    draws its start preset (the zero preset stays at 0), then the Gamma(N)
    reference sample, then phi at each grid time from its exact transition
    law, all from the rung's one generator; nothing is integrated, and a
    profile costs about the draws themselves at any n.  The routes differ
    in how the start and the model are built and in their upper bounds:
    the matrix flow's closed forms on the matrix route, the regularized KL
    chain on the Euler route.  Supported kinds here: TV, KL, L2.  Each
    bound is evaluated only for the kinds requested.  A grid time 0 is
    allowed: the law there is the point mass at the start, whose upper
    bounds are TV 1 and KL = L2 = inf.
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
    replicas = int(config.get("replicas", 4000))
    kinds = [_norm_kind(k) for k in config.get("distances", ())] or ["TV", "KL"]
    seed = int(config.get("seed", 0))
    preset = config.get("x0_preset", "zero")

    rows = []
    predictions = {}
    critical_times = {}
    meta = {"route": route, "x0_preset": preset, "replicas": replicas, "seed": seed,
            "fallbacks": []}

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

        abs_times = multipliers * cn
        ref = gen.standard_gamma(n_big, size=replicas)
        logpdf = _phi_reference_logpdf(n_big)
        # one exact draw per grid time, lazily, after the reference draw:
        # this order fixes the profile's bits
        start = np.full(replicas, obs.phi_raw)
        phi_draws = (cir_exact_transition(start, t, n_big, gen) for t in abs_times)

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

        for t_abs, phi_samples in zip(abs_times, phi_draws):
            for kind in kinds:
                if kind == "TV":
                    est = tv_threshold_witness(phi_samples, ref)
                    value, stderr = est.value, est.stderr
                    b_lo = _tv_lower_bound(obs, t_abs)
                elif kind == "KL":
                    est = kl_projected_estimate(phi_samples, logpdf, 1.0)
                    value, stderr = est.value, est.stderr
                    b_lo = 0.0
                elif kind == "L2":
                    value = float(np.abs(np.mean(phi_samples) - n_big) / math.sqrt(n_big))
                    stderr = float(np.std(phi_samples) / math.sqrt(replicas * n_big))
                    b_lo = math.sqrt(_lb_l2_witness(obs, t_abs))
                else:
                    raise UnsupportedRegime(
                        "profile distances support TV, KL, L2; use the coupling module "
                        "for intrinsic Wasserstein decay"
                    )
                b_up = upper[kind](t_abs) if t_abs > 0 else _POINT_MASS_UPPER[kind]
                rows.append(
                    ProfileRow(
                        n=n,
                        t=float(t_abs),
                        kind=kind,
                        value=float(value),
                        stderr=float(stderr) if math.isfinite(stderr) else 0.0,
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
