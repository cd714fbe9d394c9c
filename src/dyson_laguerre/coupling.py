"""Mirror and synchronous couplings, and intrinsic Wasserstein decay curves.

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

Every entry point reads its starts as dl_paths_batch does, through
simulate._start_rows: one state repeated replicas times, or (r, n) rows.
A start law, such as the invariant gas in wg_decay_estimate, is passed as
rows the caller has drawn.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from . import _kernels, transport
from .errors import DomainError
from .simulate import (
    _advance,
    _coerce_generator,
    _propose_batch,
    _start_rows,
    _step_plan,
    _validate_times,
    default_dt,
    dl_paths_batch,
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


def run_coupled_batch(x0a, x0b, times, params, rng, replicas=1, kind="mirror", dt=None):
    """Coupled pairs observed on a grid, the one path driver for both
    couplings.  Each leg starts from one state repeated replicas times or
    from (r, n) per-row starts, with the same row count for both legs.
    kind="mirror" is the coupling of the module docstring; "synchronous"
    shares the noise, a diagnostic whose pairs never merge and which the
    explicit step need not contract where the pair terms are stiff.

    Returns (states_a, states_b, coalesce_times) with state arrays of shape
    (len(times), r, n).  A row's legs are equal at every grid time at or
    after its coalescence time, which has step-size resolution: 0 where a
    row's starts already agree, inf where the pair never merged.
    """
    if kind not in ("mirror", "synchronous"):
        raise DomainError(f"coupling kind must be mirror or synchronous, got {kind!r}")
    a0 = _start_rows(x0a, params, replicas)
    b0 = _start_rows(x0b, params, replicas)
    if a0.shape != b0.shape:
        raise DomainError(f"start legs have {a0.shape[0]} and {b0.shape[0]} rows")
    times = _validate_times(times)
    gen = _coerce_generator(rng)
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


def _w_with_bootstrap(cloud_a, cloud_b, se=True):
    """Exact W2 between two equal-size clouds, with a split-sample stderr.

    The value is one exact assignment on the full cost matrix.  The stderr
    splits the rows into SE_BLOCKS contiguous blocks (np.array_split, so no
    row is dropped), pairs block k of cloud_a with block k of cloud_b, solves
    each pair on its diagonal sub-block of the same cost matrix and returns
    std(V_k, ddof=1) / sqrt(SE_BLOCKS).  A sub-block holds, entry for entry,
    the costs a fresh build on the block clouds would give, and nothing is
    drawn at random.  With se=False only the value is solved, and the stderr
    is NaN.  The name is that of the bootstrap this replaced, kept because
    bench/tracing.py binds it as a traced layer.
    """
    if not se:
        return transport.wasserstein_intrinsic(cloud_a, cloud_b).value, float("nan")
    cost_pow = transport._assignment_cost(cloud_a, cloud_b) ** 2
    value = transport._assignment_value(cost_pow, 2)
    vals = [
        transport._assignment_value(cost_pow[np.ix_(rows, rows)], 2)
        for rows in np.array_split(np.arange(cost_pow.shape[0]), SE_BLOCKS)
    ]
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
    w0, _ = _w_with_bootstrap(cloud0, eq0, se=False)
    floor, _ = _w_with_bootstrap(
        sample_equilibrium_batch(params, gen, replicas),
        sample_equilibrium_batch(params, gen, replicas),
        se=False,
    )
    paths = dl_paths_batch(cloud0, times, params, gen, dt=dt)
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
