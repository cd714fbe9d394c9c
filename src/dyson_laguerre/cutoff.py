"""Cutoff predictions, witness bounds, and profile experiments.

The linear statistic phi(x) = sum_i x_i is an exact eigenfunction carrier:
G phi = N - phi with N = n*alpha, Gamma(phi) = phi, so phi(X_t) is itself a
one-dimensional canonical square-root diffusion with shape N.  Its
equilibrium pushforward is Gamma(N, 1) exactly.  All witness formulas below
live on that projection.

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
from .model import ModelParams, observable_phi
from .simulate import MatrixParams, RngStream, cir_exact_transition, dl_paths_batch
from .transport import (
    OUParams,
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


def mixing_time_ou(dist_kind, p, nm_override=None):
    """Cutoff-time branch formulas for an OU flow with general coefficients.

    For dZ = sigma dB - theta Z dt in dimension N started at z0,

        2 theta t = log(theta |z0|^2 / (4 sigma^2)) v log(N/4)        (TV)
        2 theta t = log(theta |z0|^2 / sigma^2)     v log(sqrt(N)/2)  (KL)
        2 theta t = log(2 theta |z0|^2 / sigma^2)   v log sqrt(N/2)   (L2)
        2 theta t = log(|z0|^2)  v  log sqrt(N sigma^2 / (8 theta))   (W)

    A branch whose argument is nonpositive is dropped; if both drop the
    start is already indistinguishable at this resolution and DomainError
    is raised.  nm_override replaces the dimension count N = p.n * p.m.
    """
    kind = _norm_kind(dist_kind)
    theta = p.gamma
    sigma_sq = p.kappa**2
    nn = float(nm_override if nm_override is not None else p.nm)
    z2 = p.z0_norm_sq
    if kind == "TV":
        args = (theta * z2 / (4.0 * sigma_sq), nn / 4.0)
    elif kind == "KL":
        args = (theta * z2 / sigma_sq, math.sqrt(nn) / 2.0)
    elif kind == "L2":
        args = (2.0 * theta * z2 / sigma_sq, math.sqrt(nn / 2.0))
    else:
        args = (z2, math.sqrt(nn * sigma_sq / (8.0 * theta)))
    logs = [math.log(a) for a in args if a > 0]
    if not logs:
        raise DomainError("both cutoff branches are vacuous for these parameters")
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
    obs = observable_phi(x0, params)
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


def lb_l2_witness(x0, t, params):
    """Squared spectral witness (phi_centered(x0)^2 / N) e^{-2t}, a certified
    lower bound for the squared L2 distance from equilibrium at time t."""
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    obs = observable_phi(x0, params)
    if obs.phi_centered == 0.0:
        return 0.0
    return (obs.phi_centered**2 / obs.phi_l2norm_sq) * math.exp(-2.0 * t)


def duhamel_variance(x0, t, params):
    """Variance of phi under the time-t law started at x0,

        Var = N (1 - e^{-t})^2 + 2 phi_raw(x0) (1 - e^{-t}) e^{-t},

    exact for every beta since phi projects to a closed one-dimensional
    diffusion.  A negative value (impossible for admissible inputs, kept as
    a diagnostic) is flagged with a warning, never raised."""
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    obs = observable_phi(x0, params)
    c = -math.expm1(-t)
    val = obs.phi_l2norm_sq * c**2 + 2.0 * obs.phi_raw * c * math.exp(-t)
    if val < 0:
        warnings.warn(f"duhamel_variance returned {val} < 0", RuntimeWarning, stacklevel=2)
    return val


def tv_lower_bound_formula(x0, t, params):
    """Spectral total-variation lower bound at time t,

        TV >= 1 - 4 e^{2t} (N + Var_t(phi)) / phi_centered(x0)^2,

    clamped to [0, 1]; zero when the start is exactly centered."""
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    obs = observable_phi(x0, params)
    if obs.phi_centered == 0.0:
        return 0.0
    var_t = duhamel_variance(x0, t, params)
    val = 1.0 - 4.0 * math.exp(2.0 * t) * (obs.phi_l2norm_sq + var_t) / obs.phi_centered**2
    return min(max(val, 0.0), 1.0)


def lift_matrix_bounds(dist_kind, matrix_value, n, m, statement_constant=False):
    """Lift a matrix-flow distance to the projected particle system.

        TV:  min(nm * v, 1)
        KL:  nm * v
        L2:  sqrt((v^2 + 1)^{nm} - 1)   (+inf marker on overflow)
        W:   2 sqrt(n) * v    (per the contraction argument; pass
             statement_constant=True for the sqrt(n) variant)

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
    const = math.sqrt(n) if statement_constant else 2.0 * math.sqrt(n)
    return const * matrix_value


def kl_upper_bound_chain(x0, t, eta, params):
    """Regularized KL bound at time t + eta,

        KL(Law(X_{t+eta}) | pi) <= (e^{-eta} / (1 - e^{-eta})) (phi_raw(x0) + N) e^{-t},

    combining the Wasserstein contraction up to time t with a
    transport-entropy regularization step of length eta > 0."""
    if eta <= 0:
        raise DomainError(f"eta must be positive, got {eta}")
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    obs = observable_phi(x0, params)
    ratio = math.exp(-eta) / (-math.expm1(-eta))
    return ratio * (obs.phi_raw + obs.phi_l2norm_sq) * math.exp(-t)


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


def _matrix_entry_tv_sum(x0, ou, t):
    """Sum of per-entry TVs for the matrix flow started at diag(sqrt(m x0)):
    a valid tensorization upper bound on the full matrix TV."""
    v_inf = ou.stationary_var
    v_t = v_inf * (-math.expm1(-2.0 * ou.gamma * t))
    decay = math.exp(-ou.gamma * t)
    # entry 0 is the zero-mean entry, one of nm - n alike
    means = np.concatenate(([0.0], np.sqrt(ou.m * np.asarray(x0, dtype=float)) * decay))
    tvs = gaussian_tv(means, v_t, v_inf).tolist()
    total = (ou.nm - ou.n) * tvs[0]
    for tv in tvs[1:]:
        total += tv
    return total


def run_cutoff_profile(config):
    """Run a distance-to-equilibrium profile over an n ladder.

    config is a mapping with keys drawn from the flat run schema: n (int or
    list, default 16, 64, 128), m (selects the matrix route, defaults to n
    when alpha is not given), alpha, beta (select the Euler route; beta
    defaults to 1), x0_preset (default zero), times (multipliers of the
    nominal critical time c_n, default 0.4 to 1.6 by 0.1), replicas
    (default 4000), distances (default TV, KL), seed (default 0).  A key
    whose value is None counts as omitted.  The matrix route is taken
    whenever it is available, that is, whenever the config does not pin an
    explicit (alpha, beta).

    On the matrix route the phi statistic is sampled from its exact
    transition law (the projection of the matrix flow), so profiles at
    large n cost nothing beyond the draws themselves; on the Euler route
    the integrator produces the samples.  Supported kinds here: TV, KL, L2.
    Each bound is evaluated only for the kinds requested.  A grid time 0
    is allowed: the law there is the point mass at the start, whose upper
    bounds are TV 1 and KL = L2 = inf.
    """
    from .equilibrium import build_x0  # local import to avoid a cycle

    config = {k: v for k, v in config.items() if v is not None}
    route = "sde" if "alpha" in config else "matrix"
    ladder = config.get("n", [16, 64, 128])
    if isinstance(ladder, (int, np.integer)):
        ladder = [int(ladder)]
    ladder = [int(v) for v in ladder]
    multipliers = np.asarray(config.get("times") or np.arange(0.4, 1.65, 0.1), dtype=float)
    replicas = int(config.get("replicas", 4000))
    kinds = [_norm_kind(k) for k in config.get("distances") or ["TV", "KL"]]
    seed = int(config.get("seed", 0))
    preset = config.get("x0_preset", "zero")

    rows = []
    predictions = {}
    critical_times = {}
    meta = {"route": route, "x0_preset": preset, "replicas": replicas, "seed": seed,
            "fallbacks": []}

    for n_idx, n in enumerate(ladder):
        if route == "matrix":
            mp = MatrixParams.bru(n, int(config.get("m") or n))
            params = mp.induced_model()
        else:
            mp = None
            params = ModelParams(n, float(config["alpha"]), float(config.get("beta", 1.0)))
        gen = RngStream(seed, stream_id=1000 + n_idx).generator()
        x0, note = build_x0(preset, params, gen, positive=(route == "sde"))
        if note:
            meta["fallbacks"].append(f"n={n}: {note}")
        obs = observable_phi(x0, params)
        n_big = obs.phi_l2norm_sq

        preds = {k: cutoff_predict(k, x0, params, matrix=mp) for k in kinds}
        predictions[n] = preds
        tv_pred = preds["TV"] if "TV" in preds else cutoff_predict("TV", x0, params, matrix=mp)
        cn = tv_pred.c_upper
        if cn <= 0:
            cn = max(0.5 * math.log(n_big), 1.0)
            meta["fallbacks"].append(f"n={n}: nominal critical time floored to {cn:.3f}")
        critical_times[n] = cn

        abs_times = multipliers * cn
        ref = gen.standard_gamma(n_big, size=replicas)
        logpdf = _phi_reference_logpdf(n_big)

        # The route fixes how phi is drawn at each grid time and the upper
        # bound of each kind; a bound runs only when its kind is requested.
        if route == "matrix":
            ou = OUParams(n, mp.m, mp.kappa, mp.gamma, z0_norm_sq=float(mp.m * obs.phi_raw))
            start = np.full(replicas, obs.phi_raw)
            phi_draws = (cir_exact_transition(start, t, n_big, gen) for t in abs_times)
            upper = {
                "TV": lambda t: min(_matrix_entry_tv_sum(x0.as_array(), ou, t), 1.0),
                "KL": lambda t: ou_closed_form_distances(ou, t)["KL"].value,
                "L2": lambda t: ou_closed_form_distances(ou, t)["L2"].value,
            }
        else:
            phi_draws = dl_paths_batch((x0, replicas), abs_times, params, gen).sum(axis=2)

            def kl_chain(t):
                return kl_upper_bound_chain(x0, 0.0, t, params)

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
                    b_lo = tv_lower_bound_formula(x0, t_abs, params)
                elif kind == "KL":
                    est = kl_projected_estimate(phi_samples, logpdf, 1.0)
                    value, stderr = est.value, est.stderr
                    b_lo = 0.0
                elif kind == "L2":
                    value = float(np.abs(np.mean(phi_samples) - n_big) / math.sqrt(n_big))
                    stderr = float(np.std(phi_samples) / math.sqrt(replicas * n_big))
                    b_lo = math.sqrt(lb_l2_witness(x0, t_abs, params))
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
