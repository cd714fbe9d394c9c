import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

import dyson_laguerre
from dyson_laguerre import (
    DomainError,
    MatrixParams,
    NumericError,
    ModelParams,
    RngStream,
    UnsupportedRegime,
    dl_paths_batch,
    matrix_dl_path,
    wasserstein_intrinsic,
    wg_decay_estimate,
)
from dyson_laguerre import _kernels, coupling, simulate
from dyson_laguerre.coupling import (
    _w_with_bootstrap,
    coupled_distance_curve,
    reflection_coalesced_law,
    run_coupled_batch,
)
from dyson_laguerre.equilibrium import sample_equilibrium_batch
from dyson_laguerre.simulate import _propose_batch
from test_simulate import _p2_mean


def _leg_distance(sa, sb):
    """Intrinsic distance between the legs, per grid time and row."""
    return 2.0 * np.sqrt(np.sum((np.sqrt(sa) - np.sqrt(sb)) ** 2, axis=2))


@pytest.mark.parametrize("kind", ["mirror", "synchronous"])
def test_legs_are_equal_from_coalescence_on(kind):
    # at every grid time at or after a row's coalescence time its legs are
    # equal; rows start apart, merged (equal starts) or merge on the way
    params = ModelParams(3, 4.0, 1.0)
    x0 = np.tile([1.0, 2.0, 3.0], (60, 1))
    y0 = x0 * np.linspace(1.0, 1.05, 60)[:, None]
    y0[::4] = x0[::4]
    times = [0.05, 0.2, 0.5, 1.0]
    sa, sb, coal = run_coupled_batch(x0, y0, times, params, RngStream(0, 0), kind=kind, dt=1e-3)
    assert np.all(coal[::4] == 0.0)
    if kind == "mirror":
        assert 0 < np.sum(np.isfinite(coal) & (coal > 0.0))
    else:
        assert np.all(coal[np.any(x0 != y0, axis=1)] == math.inf)
    for k, t in enumerate(times):
        after = t >= coal
        assert np.array_equal(sa[k, after], sb[k, after])


def test_coupled_distance_curve_needs_two_pairs(monkeypatch):
    params = ModelParams(3, 4.0, 1.0)
    x0, y0 = [1.0, 2.0, 3.0], [1.5, 2.5, 3.5]

    def unreachable(*args, **kwargs):
        raise AssertionError("simulated although the stderr cannot be formed")

    with monkeypatch.context() as patch:
        patch.setattr(coupling, "run_coupled_batch", unreachable)
        for start in (x0, [x0]):
            with pytest.raises(DomainError):
                coupled_distance_curve(start, y0, [0.1], params, RngStream(0), replicas=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, stderr, _ = coupled_distance_curve(x0, y0, [0.1], params, RngStream(0), replicas=2)
    assert np.all(np.isfinite(mean)) and np.all(np.isfinite(stderr))


class _ChosenDraws:
    """Generator stand-in whose draws are fixed arrays."""

    def __init__(self, normal, uniform):
        self.normal, self.uniform = normal, uniform

    def standard_normal(self, shape):
        assert shape == self.normal.shape
        return self.normal.copy()

    def random(self, size):
        assert size == self.uniform.size
        return self.uniform.copy()


def test_advance_pairs_merges_rows_whose_sorted_proposals_agree():
    # swapped legs have swapped means, so the mirror reflection of xi is its
    # swap; once the sticking branch rejects, sorting maps both proposals to
    # one row up to rounding, and the late merge sets the legs equal
    params = ModelParams(2, 4.0, 1.0)
    ya, yb = np.array([[2.0, 3.0]]), np.array([[3.0, 2.0]])
    dt, merged = 1e-3, np.array([False])
    draws = _ChosenDraws(np.array([[0.3, -0.2]]), np.array([0.999]))
    drift = _kernels.edl_drift_batch(np.concatenate((ya, yb)), params.alpha, params.beta)
    xi_b, stuck = coupling._mirror_second_noise(ya, yb, dt, draws.normal, draws.uniform, merged,
                                                drift[:1], drift[1:])
    assert not stuck[0]
    assert np.allclose(xi_b, draws.normal[:, ::-1])
    (prop_a, prop_b, now_merged), ok = coupling._advance_pairs(ya, yb, dt, params, draws, 0,
                                                                "mirror", merged)
    assert ok[0] and now_merged[0]
    assert np.array_equal(prop_a, prop_b)


def test_run_coupled_batch_guards():
    params = ModelParams(2, 3.0, 1.0)
    with pytest.raises(DomainError):
        run_coupled_batch([1.0, 2.0], [1.0, 2.0], [0.1], params, RngStream(0, 0), kind="antithetic")
    with pytest.raises(DomainError):
        run_coupled_batch([0.0, 2.0], [1.0, 2.0], [0.1], params, RngStream(0, 0))
    with pytest.raises(DomainError):
        run_coupled_batch([1.0, 2.0], [1.0, 2.0], [0.3, 0.2], params, RngStream(0, 0))
    for times in (0.5, [math.inf], [[0.5]], [0.0, math.nan]):
        with pytest.raises(DomainError):
            run_coupled_batch([1.0, 2.0], [1.5, 2.5], times, params, RngStream(0, 0))


def test_mirror_marginals_match_solo_law():
    # each leg of the coupled pair must keep the one-copy law; compare the
    # phi statistic against an uncoupled batch by KS
    params = ModelParams(3, 4.0, 1.0)
    x0 = np.array([0.5, 1.5, 3.0])
    y0 = np.array([1.0, 2.0, 4.0])
    t = [0.6]
    reps = 1500
    sa, sb, _ = run_coupled_batch(x0, y0, t, params, RngStream(3, 0), replicas=reps, dt=2e-3)
    solo_a = dl_paths_batch(x0, t, params, RngStream(4, 0), replicas=reps, dt=2e-3)
    solo_b = dl_paths_batch(y0, t, params, RngStream(5, 0), replicas=reps, dt=2e-3)
    assert stats.ks_2samp(sa[0].sum(axis=1), solo_a[0].sum(axis=1)).pvalue > 0.01
    assert stats.ks_2samp(sb[0].sum(axis=1), solo_b[0].sum(axis=1)).pvalue > 0.01


def test_mirror_domination_small_config():
    # mean intrinsic distance under the mirror coupling stays below the
    # exp(-t/2) envelope within sampling error
    params = ModelParams(3, 4.0, 1.0)
    x0 = np.array([0.5, 1.5, 3.0])
    y0 = np.array([1.0, 2.5, 4.5])
    times = [0.5, 1.0, 2.0, 3.5]
    mean, stderr, coal = coupled_distance_curve(
        x0, y0, times, params, RngStream(6, 0), replicas=400, dt=2e-3
    )
    d0 = 2.0 * math.sqrt(np.sum((np.sqrt(x0) - np.sqrt(y0)) ** 2))
    for t, m, se in zip(times, mean, stderr):
        assert m <= math.exp(-t / 2) * d0 + 3 * se + 1e-9, (t, m)
    # most pairs have met by the long horizon
    assert np.mean(np.isfinite(coal)) > 0.5


def test_coalescence_monotone_in_horizon():
    params = ModelParams(2, 3.0, 1.0)
    x0 = np.array([1.0, 2.0])
    y0 = np.array([1.5, 2.5])
    times = [0.5, 1.0, 2.0, 4.0]
    _, _, coal = run_coupled_batch(
        x0, y0, times, params, RngStream(7, 0), replicas=300, dt=2e-3
    )
    fracs = [np.mean(coal <= t) for t in times]
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] > fracs[0]


def test_synchronous_gap_follows_ode():
    # beta = 0, alpha = 1/2: the square-root drift is exactly -y/2, the
    # shared noise cancels, and the gap contracts deterministically
    params = ModelParams(1, 0.5, 0.0)
    x0 = np.array([4.0])   # y = 4
    y0 = np.array([1.0])   # y = 2
    sa, sb, coal = run_coupled_batch(x0, y0, [0.5, 1.0], params, RngStream(8, 0),
                                     kind="synchronous", dt=1e-4)
    assert coal[0] == math.inf
    d = _leg_distance(sa, sb)[:, 0]
    for t, g in zip([0.5, 1.0], d):
        assert g == pytest.approx(2.0 * math.exp(-t / 2), rel=2e-3)


def test_synchronous_never_merges():
    params = ModelParams(2, 3.0, 1.0)
    _, _, coal = run_coupled_batch(
        np.array([1.0, 2.0]), np.array([1.2, 2.2]),
        [0.5], params, RngStream(9, 0), kind="synchronous", dt=2e-3
    )
    assert coal.shape == (1,)
    assert coal[0] == math.inf


def test_wg_decay_needs_replicas():
    params = ModelParams(2, 3.0, 1.0)
    with pytest.raises(DomainError):
        wg_decay_estimate(np.array([1.0, 2.0]), [1.0], params, 50, RngStream(10, 0))
    # (r, n) start rows are the replicas, so their count must be replicas
    rows = np.tile([1.0, 2.0], (120, 1))
    for r in (100, 140):
        with pytest.raises(DomainError):
            wg_decay_estimate(rows, [1.0], params, r, RngStream(10, 0))


def test_wg_decay_flat_at_equilibrium():
    # started from equilibrium the curve sits at the floor for all times; the
    # start rows come from the generator the estimate then goes on with
    params = ModelParams(2, 3.0, 1.0)
    gen = RngStream(11, 0).generator()
    rows = sample_equilibrium_batch(params, gen, 140)
    curve = wg_decay_estimate(rows, [0.4, 1.2], params, 140, gen, dt=2e-3)
    for v, se in zip(curve.values, curve.stderrs):
        assert abs(v - curve.floor) < 4 * (se + 0.05)
    rows = curve.rows()
    assert len(rows) == 2
    assert curve.envelope[0] == pytest.approx(curve.w0 * math.exp(-0.4 / 2))


def test_wg_decay_point_mass_decays():
    params = ModelParams(2, 3.0, 1.0)
    curve = wg_decay_estimate(
        np.array([0.2, 0.6]), [0.5, 2.0, 4.0], params, 150, RngStream(12, 0), dt=2e-3
    )
    assert curve.values[0] > curve.values[-1]
    # long-horizon value sits near the resolution floor
    assert curve.values[-1] < curve.floor + 4 * (curve.stderrs[-1] + 0.05)


def _split_se_reference(cloud_a, cloud_b):
    """Reference: the split-sample stderr with each of 4 blocks solved by
    wasserstein_intrinsic on block clouds built afresh; the first r % 4
    blocks take one row more, so every row is in one block."""
    blocks = 4
    size, extra = divmod(cloud_a.shape[0], blocks)
    vals, start = [], 0
    for k in range(blocks):
        stop = start + size + (k < extra)
        vals.append(wasserstein_intrinsic(cloud_a[start:stop], cloud_b[start:stop]).value)
        start = stop
    return float(np.std(vals, ddof=1) / math.sqrt(blocks))


@pytest.mark.parametrize("n, r", itertools.product((2, 4), (100, 160, 163)))
def test_split_sample_se_matches_block_references(n, r):
    params = ModelParams(n, 2.0 + (n - 1), 2.0)
    src = np.random.default_rng(n * r)
    eq = sample_equilibrium_batch(params, src, r)
    clouds = [
        (sample_equilibrium_batch(params, src, r), eq),
        (np.tile(np.arange(1.0, n + 1.0), (r, 1)), eq),  # point mass: tied costs
    ]
    for cloud_a, cloud_b in clouds:
        exact = wasserstein_intrinsic(cloud_a, cloud_b).value
        got = _w_with_bootstrap(cloud_a, cloud_b)
        want = (exact, _split_se_reference(cloud_a, cloud_b))
        assert np.array(got).tobytes() == np.array(want).tobytes()


def _replay_wg_decay(curve, gen, ref, params, cloud0, times, paths_of):
    """Replay on ref the draws that wg_decay_estimate made on gen, with
    paths_of(ref) drawing its paths, and check that curve is made of plain
    assignments on them and that gen made no other draw."""
    r = cloud0.shape[0]
    eq0 = sample_equilibrium_batch(params, ref, r)
    floor_a = sample_equilibrium_batch(params, ref, r)
    floor_b = sample_equilibrium_batch(params, ref, r)
    paths = paths_of(ref)
    assert curve.w0 == wasserstein_intrinsic(cloud0, eq0).value
    assert curve.floor == wasserstein_intrinsic(floor_a, floor_b).value
    for k in range(len(times)):
        eq_k = sample_equilibrium_batch(params, ref, r)
        assert curve.values[k] == wasserstein_intrinsic(paths[k], eq_k).value
        assert curve.stderrs[k] == _split_se_reference(paths[k], eq_k)
    assert curve.meta == {"replicas": r, "se_blocks": 4}
    assert gen.bit_generator.state == ref.bit_generator.state


def test_wg_decay_draws_only_its_clouds_and_paths():
    # replay every draw wg_decay_estimate makes on a second generator: the
    # stderr draws nothing, and w0, floor, values and stderrs are those of
    # plain assignments on the replayed clouds.  alpha = 3.25 is no matrix
    # flow's spectrum, so the paths are Euler's
    params = ModelParams(2, 3.25, 1.0)
    assert simulate.matrix_realization(params) is None
    x0 = np.array([0.2, 0.6])
    times, r, dt = [0.3, 0.8], 103, 2e-3
    gen, ref = np.random.default_rng(4), np.random.default_rng(4)
    curve = wg_decay_estimate(x0, times, params, r, gen, dt=dt)
    cloud0 = np.tile(x0, (r, 1))
    _replay_wg_decay(curve, gen, ref, params, cloud0, times,
                     lambda src: dl_paths_batch(cloud0, times, params, src, dt=dt))


def test_wg_decay_w0_from_one_state_is_the_mean_cost(monkeypatch):
    # from one start state every row of w0's cost matrix is the same, so w0
    # is the root mean square of one row, with no assignment solved for it
    from dyson_laguerre import transport

    params = ModelParams(2, 3.0, 1.0)
    x0, r = np.array([0.2, 0.6]), 120
    calls, split = [], []
    solver = transport.linear_sum_assignment
    monkeypatch.setattr(transport, "linear_sum_assignment",
                        lambda cost: calls.append(cost.shape) or solver(cost))
    monkeypatch.setattr(coupling, "_w_with_bootstrap",
                        lambda a, b: split.append(len(a)) or _w_with_bootstrap(a, b))
    curve = wg_decay_estimate(x0, [0.5], params, r, np.random.default_rng(8))
    eq0 = sample_equilibrium_batch(params, np.random.default_rng(8), r)
    row = transport._intrinsic_cost(transport.EmpiricalMeasure(x0[None, :]),
                                    transport.EmpiricalMeasure(eq0))[0]
    assert curve.w0 == float(np.mean(row**2)) ** 0.5
    # the floor and the one grid time: one full assignment and SE_BLOCKS each
    assert calls == [(r, r)] + [(r, r)] + [(r // 4, r // 4)] * 4
    # only the grid time takes a split-sample stderr; w0 and the floor are
    # plain assignments
    assert split == [r]


def test_wg_decay_samples_a_realizable_model_from_the_matrix_flow(monkeypatch):
    # alpha = 3 is the spectrum of the 2 x 6 matrix flow: the paths are its
    # exact law from the aligned start rows, drawn from rng itself after the
    # floor clouds; dt is not read, and no Euler path is run
    params = ModelParams(2, 3.0, 1.0)
    mp = simulate.matrix_realization(params)
    assert mp == MatrixParams.bru(2, 6)
    monkeypatch.setattr(coupling, "dl_paths_batch", None)
    rows = np.array([[0.2, 0.6], [0.3, 1.1], [0.05, 2.0]])[np.arange(103) % 3]
    times, r = [0.3, 0.8], 103
    gen, ref = np.random.default_rng(4), np.random.default_rng(4)
    curve = wg_decay_estimate(rows, times, params, r, gen, dt=-1.0)

    def matrix_paths(src):
        return matrix_dl_path(rows, times, mp, src)

    _replay_wg_decay(curve, gen, ref, params, rows, times, matrix_paths)


# Frozen reference: the pair step as it stood, with one drift evaluation and
# one proposal per leg and the mirror noise built on gathered non-merged
# rows.  The live step stacks both legs and must give the same bits.
def _reference_mirror_second_noise(ya, yb, dt, params, xi, uniforms, merged):
    drift_a = _kernels.edl_drift_batch(ya, params.alpha, params.beta)
    drift_b = _kernels.edl_drift_batch(yb, params.alpha, params.beta)
    xi_b = xi.copy()
    stuck = merged.copy()
    rows = ~merged
    if not np.any(rows):
        return xi_b, drift_a, drift_b, stuck
    step_sd = math.sqrt(2.0 * dt)
    gap = (ya[rows] + drift_a[rows] * dt) - (yb[rows] + drift_b[rows] * dt)
    nrm = np.linalg.norm(gap, axis=1, keepdims=True)
    d = gap / step_sd
    log_u = np.log(uniforms[rows])
    accept = log_u <= -(np.sum(d * xi[rows], axis=1) + 0.5 * np.sum(d * d, axis=1))
    accept |= nrm[:, 0] <= coupling.MERGE_TOL
    sub = xi_b[rows]
    sub[accept] = xi[rows][accept] + d[accept]
    e = gap / np.maximum(nrm, 1e-300)
    proj = np.sum(e * xi[rows], axis=1, keepdims=True)
    refl = xi[rows] - 2.0 * proj * e
    sub[~accept] = refl[~accept]
    xi_b[rows] = sub
    stuck_rows = np.zeros(accept.size, dtype=bool)
    stuck_rows[accept] = True
    stuck[rows] = stuck_rows
    return xi_b, drift_a, drift_b, stuck


def _reference_advance_pairs(ya, yb, dt, params, gen, depth, kind, merged):
    xi = gen.standard_normal(ya.shape)
    uniforms = gen.random(ya.shape[0])
    if kind == "mirror":
        xi_b, drift_a, drift_b, stuck = _reference_mirror_second_noise(
            ya, yb, dt, params, xi, uniforms, merged
        )
    else:
        xi_b, drift_a, drift_b, stuck = xi, None, None, merged
    prop_a, ok_a = _propose_batch(ya, dt, params, gen, noise=xi, drift=drift_a)
    prop_b, ok_b = _propose_batch(yb, dt, params, gen, noise=xi_b, drift=drift_b)
    new_merged = stuck if kind == "mirror" else merged
    prop_b[new_merged] = prop_a[new_merged]
    ok = ok_a & (ok_b | new_merged)
    if not np.all(ok):
        if depth >= simulate.DT_HALVING_LIMIT:
            raise NumericError("coupled step halving exhausted")
        bad = ~ok
        half = 0.5 * dt
        sa, sb, sm = ya[bad], yb[bad], merged[bad]
        sa, sb, sm = _reference_advance_pairs(sa, sb, half, params, gen, depth + 1, kind, sm)
        sa, sb, sm = _reference_advance_pairs(sa, sb, half, params, gen, depth + 1, kind, sm)
        prop_a[bad], prop_b[bad] = sa, sb
        out_merged = new_merged.copy()
        out_merged[bad] = sm
        new_merged = out_merged
    if kind == "mirror":
        dist = np.linalg.norm(prop_a - prop_b, axis=1)
        just = (~new_merged) & (dist <= coupling.MERGE_TOL)
        if np.any(just):
            new_merged = new_merged | just
            prop_b[just] = prop_a[just]
    return prop_a, prop_b, new_merged


# Frozen reference: the coupled driver as it stood, with its own grid walk
# and the recursive pair step above.
def _reference_run_coupled_batch(a0, b0, times, params, rng, replicas, kind, dt):
    times = np.asarray(times, dtype=float)
    gen = simulate._coerce_generator(rng)
    r = int(replicas)
    ya = np.tile(2.0 * np.sqrt(a0)[None, :], (r, 1))
    yb = np.tile(2.0 * np.sqrt(b0)[None, :], (r, 1))
    equal_start = np.array_equal(a0, b0)
    if kind == "mirror":
        merged = np.full(r, equal_start)
        coal = np.where(merged, 0.0, np.inf)
    else:
        merged = np.zeros(r, dtype=bool)
        coal = np.full(r, 0.0 if equal_start else np.inf)
    out_a = np.empty((times.size, r, params.n))
    out_b = np.empty((times.size, r, params.n))
    t_now = 0.0
    for k, t in enumerate(times):
        span = t - t_now
        if span > 0:
            n_steps = max(1, int(math.ceil(span / dt - 1e-12)))
            h = span / n_steps
            for _ in range(n_steps):
                was = merged.copy()
                ya, yb, merged = _reference_advance_pairs(ya, yb, h, params, gen, 0, kind, merged)
                t_now += h
                fresh = merged & ~was
                if np.any(fresh):
                    coal[fresh] = t_now
            t_now = t
        out_a[k] = 0.25 * ya**2
        out_b[k] = 0.25 * yb**2
    return out_a, out_b, coal


@pytest.mark.parametrize("kind", ["mirror", "synchronous"])
def test_pair_step_matches_frozen_reference(kind, monkeypatch):
    params = ModelParams(4, 4.0, 1.0)
    x0 = np.array([0.5, 1.0, 1.5, 2.0])
    times = [0.0, 0.1, 0.3, 1.0]
    # y0 close to x0 merges pairs early; y0 = x0 starts an all-merged batch;
    # dt = 0.02 from this start forces step halving
    starts = (
        np.array([0.6, 1.1, 1.6, 2.1]),
        x0,
        np.array([1.0, 2.5, 4.0, 6.0]),
    )
    halvings = []
    live = coupling._advance_pairs

    def counting(*args):
        halvings.append(args[5] > 0)
        return live(*args)

    monkeypatch.setattr(coupling, "_advance_pairs", counting)
    for y0 in starts:
        got = run_coupled_batch(x0, y0, times, params, RngStream(6, 0), 60, kind, dt=0.02)
        want = _reference_run_coupled_batch(x0, y0, times, params, RngStream(6, 0), 60, kind,
                                            dt=0.02)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        if kind == "mirror" and y0 is not x0:
            assert 0 < np.isfinite(got[2]).sum() < 60  # some pairs merged, not all
    assert any(halvings)


def test_pair_step_with_mixed_merged_rows_matches_reference():
    params = ModelParams(3, 4.0, 1.0)
    rng = np.random.default_rng(9)
    ya = 2.0 * np.sqrt(np.sort(rng.gamma(4.0, 1.0, (40, 3)), axis=1))
    yb = 2.0 * np.sqrt(np.sort(rng.gamma(4.0, 1.0, (40, 3)), axis=1))
    merged = rng.uniform(size=40) < 0.4
    yb[merged] = ya[merged]
    for dt in (1e-3, 0.3):  # 0.3 rejects rows and halves
        for m in (merged, np.ones(40, bool), np.zeros(40, bool)):
            gen = np.random.default_rng(3)

            def step(rows, h, depth):
                return coupling._advance_pairs(rows[0], rows[1], h, params, gen, depth,
                                               "mirror", rows[2])

            got = simulate._advance((ya, yb, m), dt, step)
            want = _reference_advance_pairs(ya, yb, dt, params, np.random.default_rng(3), 0,
                                            "mirror", m)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["mirror", "synchronous", "reflection"])
def test_per_row_starts_match_state_form(kind):
    params = ModelParams(3, 4.0, 1.0)
    x0 = np.array([0.5, 1.5, 3.0])
    y0 = np.array([1.0, 2.0, 4.0])
    times = [0.1, 0.4]
    got = run_coupled_batch(np.tile(x0, (25, 1)), np.tile(y0, (25, 1)),
                            times, params, RngStream(13, 0), kind=kind, dt=5e-3)
    want = run_coupled_batch(x0, y0, times, params, RngStream(13, 0), 25, kind, dt=5e-3)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", ["mirror", "synchronous", "reflection"])
def test_per_row_starts_with_equal_rows(kind):
    params = ModelParams(3, 4.0, 1.0)
    rng = np.random.default_rng(14)
    a0 = np.sort(rng.gamma(4.0, 1.0, (20, 3)), axis=1)
    b0 = np.sort(rng.gamma(4.0, 1.0, (20, 3)), axis=1)
    equal = np.arange(20) % 3 == 0
    b0[equal] = a0[equal]
    times = [0.1, 0.3]
    sa, sb, coal = run_coupled_batch(a0, b0, times, params, RngStream(14, 0), kind=kind, dt=5e-3)
    assert np.all(coal[equal] == 0.0)
    assert np.array_equal(sa[:, equal], sb[:, equal])
    assert np.all(coal[~equal] > 0.0)
    if kind == "synchronous":
        assert np.all(coal[~equal] == math.inf)
    for k, t in enumerate(times):
        # legs agree exactly on the rows that have merged by t, and only
        # there; coalescence times are sums of steps, so allow roundoff
        assert np.array_equal(np.all(sa[k] == sb[k], axis=1), coal <= t + 1e-9)


def test_per_row_starts_need_equal_row_counts():
    params = ModelParams(3, 4.0, 1.0)
    a0 = np.tile([1.0, 2.0, 3.0], (5, 1))
    for b0 in ([1.5, 2.5, 3.5], np.tile([1.5, 2.5, 3.5], (4, 1))):
        with pytest.raises(DomainError):
            run_coupled_batch(a0, b0, [0.1], params, RngStream(15, 0), dt=1e-2)
    # one state repeated to the other leg's row count is fine
    run_coupled_batch(a0, [1.5, 2.5, 3.5], [0.1], params, RngStream(15, 0), replicas=5, dt=1e-2)


# Reflection pairs on criterion 07's starts and the realizable model n = 4,
# alpha = 4, beta = 1 (m = 8): 20,000 pairs on a grid whose steps are long
# next to the coalescence times, so most pairs meet between grid times.
_REFLECT_PARAMS = ModelParams(4, 4.0, 1.0)
_REFLECT_X0 = np.array([0.5, 1.0, 1.5, 2.0])
_REFLECT_Y0 = np.array([1.0, 2.0, 3.0, 4.0])
_REFLECT_TIMES = [0.0, 0.25, 1.0, 3.0]
_REFLECT_PAIRS = 20_000


@pytest.fixture(scope="module")
def reflection_pairs():
    return run_coupled_batch(_REFLECT_X0, _REFLECT_Y0, _REFLECT_TIMES, _REFLECT_PARAMS,
                             RngStream(31, 0), replicas=_REFLECT_PAIRS, kind="reflection")


def test_reflection_coalescence_follows_the_erf_law(reflection_pairs):
    # P(tau <= t) = 1 - erf(d_g / (4 sqrt(e^t - 1))) at grid times and
    # between them, where tau comes from the bridge's Wald draw
    _, _, coal = reflection_pairs
    assert np.all(coal > 0.0)
    for t in (0.25, 1.0, 3.0, 0.1, 0.5, 2.0, 2.9):
        law = reflection_coalesced_law(_REFLECT_X0, _REFLECT_Y0, t)
        se = math.sqrt(law * (1.0 - law) / _REFLECT_PAIRS)
        assert abs(np.mean(coal <= t) - law) <= 4.0 * se, (t, np.mean(coal <= t), law)
    assert reflection_coalesced_law(_REFLECT_X0, _REFLECT_Y0, 0.0) == 0.0
    assert reflection_coalesced_law(_REFLECT_X0, _REFLECT_X0, 0.0) == 1.0


def test_reflection_legs_are_equal_from_coalescence_on(reflection_pairs):
    sa, sb, coal = reflection_pairs
    for k, t in enumerate(_REFLECT_TIMES):
        after = coal <= t
        assert np.array_equal(sa[k, after], sb[k, after])
        assert np.all(np.any(sa[k, ~after] != sb[k, ~after], axis=1))
    # pairs meet inside every grid step
    for lo, hi in zip(_REFLECT_TIMES, _REFLECT_TIMES[1:]):
        assert np.any((lo < coal) & (coal < hi))


def test_reflection_legs_each_have_the_exact_law(reflection_pairs):
    # E p_1 and E p_2 of each leg within 4 se of the degree-1 and degree-2
    # closed forms from that leg's start
    params, r = _REFLECT_PARAMS, _REFLECT_PAIRS
    big_n = params.n * params.alpha
    for states, x0 in zip(reflection_pairs[:2], (_REFLECT_X0, _REFLECT_Y0)):
        for t, cloud in zip(_REFLECT_TIMES[1:], states[1:]):
            p1, p2 = cloud.sum(axis=1), (cloud**2).sum(axis=1)
            want1 = big_n + (x0.sum() - big_n) * math.exp(-t)
            for sample, want in ((p1, want1), (p2, _p2_mean(x0, t, params))):
                se = sample.std(ddof=1) / math.sqrt(r)
                assert abs(sample.mean() - want) <= 4.0 * se, (t, sample.mean(), want, se)


def test_reflection_mean_distance_is_dominated(reflection_pairs):
    sa, sb, _ = reflection_pairs
    d = _leg_distance(sa, sb)
    d0 = d[0, 0]
    assert np.allclose(d[0], d0, rtol=1e-12)
    for t, row in zip(_REFLECT_TIMES[1:], d[1:]):
        se = row.std(ddof=1) / math.sqrt(row.size)
        assert row.mean() <= math.exp(-t / 2.0) * d0 + 3.0 * se, (t, row.mean())


# Frozen reference: the reflection pairs' block walk with one generator.  Each
# block of `per` replicas walks the whole grid from its own aligned starts;
# on each step it draws leg A's normals in one call of the block's shape,
# one uniform per row, then one Wald variate per row that coalesces in the
# step, in row order.
def _reference_reflection_paths(a0, b0, times, mp, gen, per):
    g, k2 = mp.gamma, mp.kappa**2
    r, n = a0.shape
    out_a, out_b = np.empty((2, len(times), r, n))
    coal = np.empty(r)
    for lo in range(0, r, per):
        rows = slice(lo, lo + per)
        A, B = np.zeros((2, len(a0[rows]), n, mp.m))
        for i in range(n):
            A[:, i, i] = np.sqrt(mp.m * a0[rows, i])
            B[:, i, i] = np.sqrt(mp.m * b0[rows, i])
        D = A - B
        s = np.sqrt(np.sum(D * D, axis=(1, 2)))
        e = D / np.maximum(s, 1e-300)[:, None, None]
        alive = s > 0.0
        tau = np.where(alive, np.inf, 0.0)
        t_prev = 0.0
        for k, tw in enumerate(np.asarray(times) / mp.time_scale):
            if tw > t_prev:
                h = tw - t_prev
                decay = math.exp(-g * h)
                var = k2 * (-math.expm1(-2.0 * g * h)) / (2.0 * g)
                before = np.sum(e * A, axis=(1, 2))
                A = decay * A + math.sqrt(var) * gen.standard_normal(A.shape)
                s_new = decay * s + 2.0 * (np.sum(e * A, axis=(1, 2)) - decay * before)
                u = gen.random(len(A))
                v = 2.0 * k2 * math.expm1(2.0 * g * h) / g
                b = s_new / decay
                hit = alive & (u < np.exp(-2.0 * s * np.maximum(b, 0.0) / v))
                w = gen.wald(s[hit] * v / np.abs(b[hit]), s[hit] ** 2)
                clock = w * v / (v + w)
                tau[hit] = np.minimum(t_prev + np.log1p(g * clock / (2.0 * k2)) / (2.0 * g), tw)
                alive &= ~hit
                s = np.where(alive, s_new, 0.0)
            t_prev = tw
            B = np.where(alive[:, None, None], A - s[:, None, None] * e, A)
            for j in range(len(A)):
                out_a[k, lo + j] = np.maximum(np.linalg.eigvalsh(A[j] @ A[j].T), 0.0)
                out_b[k, lo + j] = np.maximum(np.linalg.eigvalsh(B[j] @ B[j].T), 0.0)
        coal[rows] = tau * mp.time_scale
    return out_a * mp.space_scale, out_b * mp.space_scale, coal


@pytest.mark.parametrize("per", [1, 2, 7])
def test_reflection_pairs_match_frozen_reference(monkeypatch, per):
    # n * m = 15 entries: blocks of 1, 2 and 7 of the 7 replicas; row 0's
    # starts agree, and some of the other pairs meet inside the grid
    params, mp = ModelParams(3, 2.5, 1.0), MatrixParams.bru(3, 5)
    a0 = np.array([[0.5, 1.0, 2.0]] * 7)
    b0 = a0 * np.linspace(1.0, 4.0, 7)[:, None]
    times = np.array([0.0, 0.2, 0.9])
    monkeypatch.setattr(coupling, "_MATRIX_BLOCK", per * 15)
    got = run_coupled_batch(a0, b0, times, params, RngStream(17, 0), kind="reflection")
    want = _reference_reflection_paths(a0, b0, times, mp, RngStream(17, 0).generator(), per)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert got[2][0] == 0.0 and 0 < np.isfinite(got[2][1:]).sum() < 6


@pytest.mark.parametrize("alpha, beta", [(3.25, 1.0), (4.0, 2.0), (4.0, 1.5)])
def test_reflection_needs_a_realizable_model(alpha, beta):
    params = ModelParams(3, alpha, beta)
    with pytest.raises(UnsupportedRegime):
        run_coupled_batch([0.5, 1.0, 2.0], [1.0, 2.0, 3.0], [0.5], params, RngStream(0, 0),
                          kind="reflection")


# One run of a matrix-flow driver at n = 4, alpha = 2048 (m = 4096, 131 KB
# per start matrix) from one start state, or for wg_decay_rows from r
# distinct start rows; prints the peak RSS in KiB.
_PEAK_RSS_RUN = """
import resource, sys
import numpy as np
from dyson_laguerre import ModelParams, RngStream
from dyson_laguerre.coupling import run_coupled_batch, wg_decay_estimate
params, r = ModelParams(4, 2048.0, 1.0), int(sys.argv[2])
x0 = np.array([1.0, 2.0, 3.0, 4.0]) * 1024.0
if sys.argv[1] == "reflection":
    run_coupled_batch(x0, 2.0 * x0, [0.5], params, RngStream(0), r, kind="reflection")
elif sys.argv[1] == "wg_decay":
    wg_decay_estimate(x0, [0.5], params, r, RngStream(0))
else:
    rows = np.tile(x0, (r, 1)) * np.linspace(1.0, 2.0, r)[:, None]
    wg_decay_estimate(rows, [0.5], params, r, RngStream(0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
# ru_maxrss starts at the resident size of the process a run was started
# from, so each run is started from a fresh, small interpreter
_LAUNCH = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"


@pytest.mark.parametrize("driver", ["reflection", "wg_decay", "wg_decay_rows"])
def test_matrix_drivers_hold_no_start_stack(driver):
    # the start matrices of 300 more replicas take 39 MB per leg; what grows
    # with r must be the result, each run in a fresh interpreter
    src = os.path.dirname(os.path.dirname(os.path.abspath(dyson_laguerre.__file__)))
    peaks = []
    for r in (100, 400):
        run = [sys.executable, "-c", _PEAK_RSS_RUN, driver, str(r)]
        done = subprocess.run([sys.executable, "-c", _LAUNCH, *run], capture_output=True,
                              text=True, check=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=src))
        peaks.append(int(done.stdout))
    assert peaks[1] - peaks[0] < 8 * 1024, peaks
