"""Mirror, reflection and synchronous couplings, and intrinsic Wasserstein
decay curves.

In square-root coordinates the diffusion coefficient is constant and the
state space is an open Euclidean domain, so the mirror coupling needs no
parallel transport: the second copy is driven by the first copy's noise
reflected across the hyperplane orthogonal to the connecting direction.
Under the curvature bound the inter-copy distance is then dominated in
expectation by an exponential envelope with rate 1/2.

Discrete time needs one extra ingredient: a pair driven by pure reflection
crosses zero without ever satisfying a fixed closeness tolerance, so the
mirror stepper couples each one-step proposal maximally, sticking the two
legs together with the Gaussian overlap probability and reflecting
otherwise.  Each leg's one-step marginal stays exactly standard normal,
and coalescence happens at the rate the continuous coupling prescribes.

Both legs of a coupled pair advance on a shared step clock: when either
leg's proposal is rejected, simulate._advance, the halving recursion of
solo paths too, halves the step for both, so the copies stay aligned in
time.  Refinement events are taming-tail rare, which keeps each leg's
marginal law indistinguishable in practice from a solo run.

Where simulate.matrix_realization realizes the model (beta = 1 and m =
2 alpha an integer >= n), kind="reflection" couples two matrix flows
instead and samples them exactly, with no step (Lindvall & Rogers 1986):
the second flow's noise is the first's reflected across their difference
D, so D stays on the line of D_0 and |D| is a one-dimensional OU process
killed at 0.  From x0 and y0, P(tau > t) = erf(d_g(x0, y0)/(4 sqrt(e^t - 1))).

Every entry point reads its starts as dl_paths_batch does, through
simulate._start_rows: one state repeated replicas times, or (r, n) rows,
each a state that model.check_states accepts.  Only the Euler scheme needs
strictly positive coordinates; the exact matrix-flow runs start at 0 too.
A start law, such as the invariant gas in wg_decay_estimate, is passed as
rows the caller has drawn.  Every entry point draws from its one rng on
every route, the exact matrix-flow runs included.

The Wasserstein decay needs only Law(X_t), not coupled paths.  Where the
matrix flow realizes the model, wg_decay_estimate samples that law exactly
from it; every other model runs the Euler scheme above.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from . import _kernels, transport
from .errors import DomainError, UnsupportedRegime
from .geometry import riemannian_distance
from .model import _require_positive
from .simulate import (
    _MATRIX_BLOCK,
    _advance,
    _coerce_generator,
    _propose_batch,
    _start_rows,
    _step_plan,
    _validate_times,
    aligned_start,
    default_dt,
    dl_paths_batch,
    matrix_dl_path,
    matrix_realization,
    rect_ou_transition,
    spectral_projection,
)

MERGE_TOL = 1e-8


def _mirror_second_noise(ya, yb, dt, xi, uniforms, merged, drift_a, drift_b):
    """Second-leg noise for the mirror coupling, with one-step coalescence.

    Writing m_a, m_b for the one-step proposal means, the first leg proposes
    p_a = m_a + sqrt(2 dt) xi.  The second leg takes the same point p_a with
    the Gaussian overlap probability min(1, N(p_a; m_b) / N(p_a; m_a)) and
    otherwise takes xi reflected across the hyperplane orthogonal to
    (m_a - m_b).  Either branch leaves the second leg's one-step marginal
    exactly standard normal, and the sticking branch is what lets a
    discrete-time pair actually coalesce: a plain reflection essentially
    never brings the y-distance below a fixed tolerance on a fixed grid.
    Merged rows keep xi.  Returns (xi_b, stuck_rows).
    """
    if np.all(merged):
        return xi.copy(), merged.copy()
    step_sd = math.sqrt(2.0 * dt)
    # Every row is computed, merged ones too: each step is row-wise, so a
    # row gets the bits it would get alone, and merged rows (ya == yb, so
    # gap == 0) are overwritten below.
    gap = (ya + drift_a * dt) - (yb + drift_b * dt)
    nrm = np.linalg.norm(gap, axis=1, keepdims=True)
    # d = (m_a - m_b)/sd in noise units; accept p_a for leg b iff
    # log u <= (|xi|^2 - |xi + d|^2)/2 = -<d, xi> - |d|^2/2
    d = gap / step_sd
    accept = np.log(uniforms) <= -(np.sum(d * xi, axis=1) + 0.5 * np.sum(d * d, axis=1))
    accept |= nrm[:, 0] <= MERGE_TOL
    e = gap / np.maximum(nrm, 1e-300)
    proj = np.sum(e * xi, axis=1, keepdims=True)
    xi_b = np.where(accept[:, None], xi + d, xi - 2.0 * proj * e)
    xi_b[merged] = xi[merged]
    return xi_b, accept | merged


def _advance_pairs(ya, yb, dt, params, gen, depth, kind, merged):
    """One coupled proposal of size dt, the pair step of simulate._advance;
    returns ((prop_a, prop_b, merged), ok), and depth is unused.  The legs
    share one drift evaluation and one proposal on the stacked rows
    [ya; yb]; both are row-wise, so each leg gets the bits of a solo call.
    """
    r = ya.shape[0]
    xi = gen.standard_normal(ya.shape)
    uniforms = gen.random(r)
    y = np.concatenate((ya, yb))
    if kind == "mirror":
        drift = _kernels.edl_drift_batch(y, params.alpha, params.beta)
        xi_b, new_merged = _mirror_second_noise(
            ya, yb, dt, xi, uniforms, merged, drift[:r], drift[r:]
        )
    else:
        drift, xi_b, new_merged = None, xi, merged.copy()
    prop, ok = _propose_batch(y, dt, params, gen, noise=np.concatenate((xi, xi_b)), drift=drift)
    prop_a, prop_b = prop[:r], prop[r:]
    prop_b[new_merged] = prop_a[new_merged]
    ok = ok[:r] & (ok[r:] | new_merged)
    if kind == "mirror":
        # _advance replaces rejected rows by half steps checked at their end
        dist = np.linalg.norm(prop_a - prop_b, axis=1)
        just = (~new_merged) & (dist <= MERGE_TOL)
        if np.any(just):
            new_merged = new_merged | just
            prop_b[just] = prop_a[just]
    return (prop_a, prop_b, new_merged), ok


def _reflection_paths(a0, b0, times, matrix, gen):
    """Reflection-coupled matrix flows from the aligned start matrices of
    the (r, n) start rows a0 and b0, observed on a grid in canonical time;
    returns (states_a, states_b, coalesce_times) as run_coupled_batch does.

    Along e = D_0/|D_0|, D_0 = A0 - B0, the gap s = <e, A - B> moves over a
    step h as s' = e^{-gamma h} s + 2 sigma <e, Z>, with Z leg A's noise and
    sigma its step sd, and B = A - s e while the pair lives.  On the local
    Brownian clock phi(u) = 4 kappa^2 (e^{2 gamma u} - 1)/(2 gamma), with a =
    s, b = e^{gamma h} s' and v = phi(h), the pair coalesces in the step if
    s' <= 0, or with the bridge-crossing probability exp(-2ab/v).  Then
    U ~ Wald(a v/|b|, a^2) gives the hitting time S = U v/(v + U) on that
    clock, and B = A from then on.

    Replicas run in blocks of at most _MATRIX_BLOCK matrix entries, as in
    matrix_dl_path, and each block builds its own aligned start matrices,
    so only the result grows with r.  On each step a block draws from the
    one generator gen: A's transition normals (rect_ou_transition), one
    uniform per row, then one Wald variate per row that coalesces in the
    step, in row order.
    """
    g, k2 = matrix.gamma, matrix.kappa**2
    wall = times / matrix.time_scale
    r = a0.shape[0]
    out_a = np.empty((times.size, r, matrix.n))
    out_b = np.empty_like(out_a)
    coal = np.empty(r)
    per = max(1, _MATRIX_BLOCK // (matrix.n * matrix.m))
    for lo in range(0, r, per):
        A = aligned_start(a0[lo:lo + per], matrix)
        D = A - aligned_start(b0[lo:lo + per], matrix)
        s = np.sqrt(np.sum(D * D, axis=(1, 2)))
        e = D / np.maximum(s, 1e-300)[:, None, None]
        alive = s > 0.0
        tau = np.where(alive, np.inf, 0.0)
        t_prev = 0.0
        for k, tw in enumerate(wall):
            if tw > t_prev:
                h = tw - t_prev
                decay = math.exp(-g * h)
                before = np.sum(e * A, axis=(1, 2))
                A = rect_ou_transition(A, h, matrix, gen)
                # A's noise along e is (<e, A'> - decay <e, A>)/sigma
                s_new = decay * s + 2.0 * (np.sum(e * A, axis=(1, 2)) - decay * before)
                u = gen.random(len(A))
                v = 2.0 * k2 * math.expm1(2.0 * g * h) / g
                b = s_new / decay
                # s' <= 0 gives exp(0) = 1 > u, so such a pair always coalesces
                hit = alive & (u < np.exp(-2.0 * s * np.maximum(b, 0.0) / v))
                w = gen.wald(s[hit] * v / np.abs(b[hit]), s[hit] ** 2)
                hit_clock = w * v / (v + w)
                # rounding must not put tau past the grid time the legs are equal at
                t_hit = t_prev + np.log1p(g * hit_clock / (2.0 * k2)) / (2.0 * g)
                tau[hit] = np.minimum(t_hit, tw)
                alive &= ~hit
                s = np.where(alive, s_new, 0.0)
            t_prev = tw
            B = A[alive] - s[alive, None, None] * e[alive]
            spectra = spectral_projection(np.concatenate((A, B)))
            out_a[k, lo:lo + per] = out_b[k, lo:lo + per] = spectra[:len(A)]
            out_b[k, lo:lo + per][alive] = spectra[len(A):]
        coal[lo:lo + per] = tau * matrix.time_scale
    out_a *= matrix.space_scale
    out_b *= matrix.space_scale
    return out_a, out_b, coal


def run_coupled_batch(x0a, x0b, times, params, rng, replicas=1, kind="mirror", dt=None):
    """Coupled pairs observed on a grid, the one path driver for every
    coupling.  Each leg starts from one state repeated replicas times or
    from (r, n) per-row starts, with the same row count for both legs.
    kind="mirror" is the Euler coupling of the module docstring;
    "synchronous" shares the noise, a diagnostic whose pairs never merge and
    which the explicit step need not contract where the pair terms are
    stiff; "reflection" is the exact matrix-flow coupling of
    _reflection_paths, which needs a model that matrix_realization realizes,
    else raises UnsupportedRegime, and does not read dt.

    Returns (states_a, states_b, coalesce_times) with state arrays of shape
    (len(times), r, n).  A row's legs are equal at every grid time at or
    after its coalescence time: 0 where a row's starts already agree, inf
    where the pair never merged.  That time has step-size resolution on the
    Euler pairs and is exact on the reflection pairs.

    rng is drawn in this order: on the Euler pairs, every step's normals
    then uniforms; on the reflection pairs, block after block of replicas,
    every step's normals, uniforms and Wald variates (_reflection_paths).
    """
    if kind not in ("mirror", "synchronous", "reflection"):
        raise DomainError(
            f"coupling kind must be mirror, synchronous or reflection, got {kind!r}"
        )
    a0 = _start_rows(x0a, params, replicas)
    b0 = _start_rows(x0b, params, replicas)
    if a0.shape != b0.shape:
        raise DomainError(f"start legs have {a0.shape[0]} and {b0.shape[0]} rows")
    times = _validate_times(times)
    gen = _coerce_generator(rng)
    if kind == "reflection":
        matrix = matrix_realization(params)
        if matrix is None:
            raise UnsupportedRegime(
                "reflection pairs need a model that a matrix flow realizes (beta = 1 and "
                f"2 alpha an integer), got alpha = {params.alpha}, beta = {params.beta}"
            )
        return _reflection_paths(a0, b0, times, matrix, gen)
    _require_positive(a0, "an Euler start")
    _require_positive(b0, "an Euler start")
    plan = _step_plan(times, default_dt(a0[0]) if dt is None else dt)

    def step(rows, h, depth):
        return _advance_pairs(rows[0], rows[1], h, params, gen, depth, kind, rows[2])

    ya, yb = 2.0 * np.sqrt(a0), 2.0 * np.sqrt(b0)
    merged = np.all(a0 == b0, axis=1)
    coal = np.where(merged, 0.0, np.inf)
    out_a = np.empty((times.size,) + a0.shape)
    out_b = np.empty_like(out_a)
    t_now = 0.0
    for k, (t, (n_steps, h)) in enumerate(zip(times, plan)):
        for _ in range(n_steps):
            was = merged
            ya, yb, merged = _advance((ya, yb, merged), h, step)
            t_now += h
            fresh = merged & ~was
            if np.any(fresh):
                coal[fresh] = t_now
        t_now = t
        out_a[k] = 0.25 * ya**2
        out_b[k] = 0.25 * yb**2
    return out_a, out_b, coal


def reflection_coalesced_law(x0, y0, t):
    """P(tau <= t) for the reflection pairs from the states x0 and y0 on
    every model a matrix flow realizes: 1 - erf(d_g(x0, y0)/(4 sqrt(e^t - 1))),
    with d_g the intrinsic distance geometry.riemannian_distance, which
    checks both states."""
    d_g = riemannian_distance(x0, y0)
    if t <= 0:
        return float(d_g == 0.0)
    return 1.0 - math.erf(d_g / (4.0 * math.sqrt(math.expm1(t))))


def coupled_distance_curve(x0, y0, times, params, rng, replicas=500, kind="mirror", dt=None):
    """Mean intrinsic distance between coupled copies over a grid.

    Returns (mean, stderr, coalesce_times).  The domination envelope for
    the mirror coupling is exp(-t/2) times the starting distance.  The
    stderr needs at least two pairs.
    """
    a0 = _start_rows(x0, params, replicas)
    if a0.shape[0] < 2:
        raise DomainError(f"a distance stderr needs at least two pairs, got {a0.shape[0]}")
    sa, sb, coal = run_coupled_batch(a0, y0, times, params, rng, replicas, kind, dt)
    d = 2.0 * np.sqrt(np.sum((np.sqrt(sa) - np.sqrt(sb)) ** 2, axis=2))
    mean = d.mean(axis=1)
    stderr = d.std(axis=1, ddof=1) / math.sqrt(d.shape[1])
    return mean, stderr, coal


@dataclass
class WgDecayCurve:
    """Estimated intrinsic Wasserstein distance to equilibrium over a grid,
    with the exponential envelope and the finite-sample floor."""

    times: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray
    envelope: np.ndarray
    w0: float
    floor: float
    meta: dict = field(default_factory=dict)

    def rows(self):
        return [
            {
                "t": float(t),
                "value": float(v),
                "stderr": float(s),
                "envelope": float(e),
                "floor": self.floor,
            }
            for t, v, s, e in zip(self.times, self.values, self.stderrs, self.envelope)
        ]


# Contiguous row blocks behind the split-sample stderr of a decay value.
SE_BLOCKS = 4


def _w_with_bootstrap(cloud_a, cloud_b):
    """Exact W2 between two equal-size clouds, with a split-sample stderr.

    The value is one exact assignment on the full cost matrix.  The stderr
    splits the rows into SE_BLOCKS contiguous blocks (np.array_split, so no
    row is dropped), pairs block k of cloud_a with block k of cloud_b, solves
    each pair on its diagonal sub-block of the same cost matrix
    (transport._w2_with_blocks) and returns std(V_k, ddof=1) /
    sqrt(SE_BLOCKS).  Nothing is drawn at random.  The name is that of the
    bootstrap this replaced, kept because bench/tracing.py binds it as a
    traced layer.
    """
    value, vals = transport._w2_with_blocks(cloud_a, cloud_b, SE_BLOCKS)
    return value, float(np.std(vals, ddof=1) / math.sqrt(SE_BLOCKS))


def wg_decay_estimate(x0, times, params, replicas, rng, dt=None):
    """Intrinsic Wasserstein decay of Law(X_t) toward the invariant gas.

    x0 is read as dl_paths_batch reads it: one start state repeated
    replicas times (a point mass), or an (r, n) array of start rows, drawn
    by the caller, with r = replicas.  Each grid time compares the
    simulated cloud against a fresh equilibrium cloud of equal size by
    one exact assignment; its stderr is the split-sample one of
    _w_with_bootstrap, over SE_BLOCKS row blocks of the same cost matrix,
    and draws nothing from rng.  The envelope is exp(-t/2) times the
    starting distance w0, and the floor is the distance between two
    independent equilibrium clouds; each is one assignment without a stderr.
    From one start state every row of w0's cost matrix is the same, so every
    bijection is optimal and w0 is the root mean square of one row, with no
    solver call (transport._assignment_value); it can differ from a solved
    assignment in the last bits only, and so can the envelope.

    The clouds run from the start rows cloud0: by the exact matrix flow of
    matrix_dl_path where matrix_realization realizes params, elsewhere by
    the Euler paths of dl_paths_batch with step dt (default_dt when None;
    not read on the matrix route).  Both routes draw from rng itself.
    After the caller's draws of any start rows, rng is drawn in this order:
    eq0, the two floor clouds, the paths (every matrix or Euler step), then
    eq_k for each grid time in turn.
    """
    from .equilibrium import sample_equilibrium_batch

    if replicas < 100:
        raise DomainError(f"replicas must be at least 100, got {replicas}")
    times = np.asarray(times, dtype=float)
    gen = _coerce_generator(rng)
    cloud0 = _start_rows(x0, params, replicas)
    if cloud0.shape[0] != replicas:
        raise DomainError(f"{cloud0.shape[0]} start rows for {replicas} replicas")
    eq0 = sample_equilibrium_batch(params, gen, replicas)
    w0 = transport.wasserstein_intrinsic(cloud0, eq0).value
    floor = transport.wasserstein_intrinsic(
        sample_equilibrium_batch(params, gen, replicas),
        sample_equilibrium_batch(params, gen, replicas),
    ).value
    matrix = matrix_realization(params)
    if matrix is None:
        paths = dl_paths_batch(cloud0, times, params, gen, dt=dt)
    else:
        paths = matrix_dl_path(cloud0, times, matrix, gen)
    values = np.empty(times.size)
    stderrs = np.empty(times.size)
    for k in range(times.size):
        eq_k = sample_equilibrium_batch(params, gen, replicas)
        values[k], stderrs[k] = _w_with_bootstrap(paths[k], eq_k)
    envelope = w0 * np.exp(-0.5 * times)
    return WgDecayCurve(
        times=times,
        values=values,
        stderrs=stderrs,
        envelope=envelope,
        w0=w0,
        floor=floor,
        meta={"replicas": replicas, "se_blocks": SE_BLOCKS},
    )
