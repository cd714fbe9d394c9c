import math

import numpy as np
import pytest
from scipy import stats

from dyson_laguerre import (
    DomainError,
    MatrixParams,
    ModelParams,
    NumericError,
    RngStream,
    check_states,
    cir_exact_transition,
    default_dt,
    dl_paths_batch,
    matrix_dl_path,
    rect_ou_transition,
    UnsupportedRegime,
    spectral_projection,
)
from dyson_laguerre import _kernels, coupling, simulate


def test_rng_stream_reproducible():
    a = RngStream(42, 3).generator().standard_normal(5)
    b = RngStream(42, 3).generator().standard_normal(5)
    c = RngStream(42, 4).generator().standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_default_dt_follows_spacing():
    assert default_dt(np.array([1.0])) == pytest.approx(1e-3)
    # tight spacing shrinks the step, with a floor at a tenth of the scale
    assert default_dt(np.array([0.0, 0.001, 0.002])) == pytest.approx(1e-4)
    # wide spacing is capped at the base scale
    assert default_dt(np.array([0.0, 5.0, 10.0])) == pytest.approx(1e-3)


# one-particle (beta = 0) closed forms:
#   E[x_t] = x0 e^-t + a (1 - e^-t)
#   Var[x_t] = 2 x0 e^-t (1 - e^-t) + a (1 - e^-t)^2
def test_cir_exact_transition_moments():
    rng = np.random.default_rng(5)
    x0, t, a = 3.0, 0.8, 2.5
    draws = cir_exact_transition(np.full(200_000, x0), t, a, rng)
    ec = math.exp(-t)
    c = 1.0 - ec
    mean = x0 * ec + a * c
    var = 2 * x0 * ec * c + a * c * c
    se_mean = math.sqrt(var / draws.size)
    assert abs(draws.mean() - mean) < 3.5 * se_mean
    m4 = stats.moment(draws, 4)
    se_var = math.sqrt((m4 - var**2) / draws.size)
    assert abs(draws.var() - var) < 3.5 * se_var


def test_cir_exact_transition_stationarity():
    # Gamma(a, 1) is invariant for the exact transition
    rng = np.random.default_rng(6)
    a = 2.2
    x0 = rng.standard_gamma(a, 30_000)
    xt = cir_exact_transition(x0, 1.3, a, rng)
    assert stats.kstest(xt, "gamma", args=(a,)).pvalue > 0.01


def test_cir_exact_transition_semigroup():
    # stepping s then t must match stepping s + t in law
    rng = np.random.default_rng(7)
    a, x0 = 3.0, 1.5
    n = 30_000
    two_step = cir_exact_transition(
        cir_exact_transition(np.full(n, x0), 0.4, a, rng), 0.9, a, rng
    )
    one_step = cir_exact_transition(np.full(n, x0), 1.3, a, rng)
    assert stats.ks_2samp(two_step, one_step).pvalue > 0.01


def test_cir_exact_transition_edges():
    rng = np.random.default_rng(8)
    assert cir_exact_transition(2.0, 0.0, 3.0, rng) == 2.0
    with pytest.raises(DomainError):
        cir_exact_transition(1.0, -0.5, 3.0, rng)
    with pytest.raises(DomainError):
        cir_exact_transition(1.0, 1.0, 0.0, rng)


@pytest.mark.parametrize("t", [0.0, 1.0])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_cir_exact_transition_refuses_a_non_finite_start(bad, t):
    # numpy's poisson would raise its own ValueError on these
    rng = np.random.default_rng(8)
    for x0 in (bad, np.array([1.0, bad])):
        with pytest.raises(DomainError, match="finite"):
            cir_exact_transition(x0, t, 3.0, rng)


def test_cir_exact_transition_refuses_a_poisson_mean_past_numpys_limit():
    # the Poisson mean x0 e^-t / (1 - e^-t) is 0.58 x0 at t = 1; past
    # numpy's limit its poisson raises "lam value too large"
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    for x0 in (1e20, 1e300, np.array([1.0, 1e20, 2.0])):
        with pytest.raises(DomainError, match="at most"):
            cir_exact_transition(x0, 1.0, 3.0, rng)
    assert rng.bit_generator.state == state
    ratio = math.exp(-1.0) / -math.expm1(-1.0)
    under = 0.999 * simulate._POISSON_LAM_MAX / ratio
    for x0 in (under, np.array([1.0, under])):
        assert np.all(np.isfinite(cir_exact_transition(x0, 1.0, 3.0, rng)))


def test_step_rejects_when_drift_overshoots():
    # a huge coordinate with a large dt overshoots the -6 sqrt(2 dt)
    # threshold deterministically (drift ~ -y/2, so y(1 - dt/2) is far
    # below -tau at dt = 4), independent of the noise draw
    params = ModelParams(1, 2.0, 0.0)
    y = 2.0 * np.sqrt([[1e8]])
    _, ok = simulate._propose_batch(y, 4.0, params, np.random.default_rng(0))
    assert not ok[0]


def test_path_driver_recovers_by_halving():
    # the same start succeeds through the path driver, which halves dt on
    # rejection until the proposal is admissible
    params = ModelParams(1, 2.0, 0.0)
    out = dl_paths_batch(np.array([1e8]), [4.0], params, RngStream(0, 0), replicas=2, dt=4.0)
    assert np.all(np.isfinite(out))
    assert np.all(out > 0)


def test_step_small_dt_accepted():
    params = ModelParams(3, 4.0, 2.0)
    y = 2.0 * np.sqrt([[0.5, 1.0, 1.5]])
    prop, ok = simulate._propose_batch(y, 1e-4, params, np.random.default_rng(0))
    assert ok[0]
    out = check_states(0.25 * prop[0] ** 2)
    assert out.shape == (3,)
    assert np.min(np.diff(out)) > 0


def test_paths_shapes_and_reproducibility():
    params = ModelParams(4, 6.0, 2.0)
    x0 = np.array([1.0, 2.0, 3.0, 4.0])
    times = [0.0, 0.1, 0.3]
    a = dl_paths_batch(x0, times, params, RngStream(1, 0), replicas=5, dt=1e-3)
    b = dl_paths_batch(x0, times, params, RngStream(1, 0), replicas=5, dt=1e-3)
    assert a.shape == (3, 5, 4)
    assert np.array_equal(a, b)
    assert np.allclose(a[0], x0)  # t=0 returns the start
    # order preserved along every path
    assert np.all(np.diff(a, axis=2) >= 0)


def test_dl_paths_batch_reads_tuples_of_numbers_as_states():
    times = [0.05, 0.1]
    for state in ([0.5], [0.5, 1.0], [0.5, 1.0, 1.5]):
        params = ModelParams(len(state), 6.0, 1.0)
        want = dl_paths_batch(state, times, params, RngStream(4, 0))
        got = dl_paths_batch(tuple(state), times, params, RngStream(4, 0))
        assert got.shape == (2, 1, len(state))
        assert np.array_equal(got, want)


@pytest.mark.parametrize("r", [1, 3])
def test_replicas_match_the_tiled_start(r):
    # one state with replicas=r runs exactly as its (r, n) tiling
    times = [0.05, 0.1]
    for state in ([0.5], [0.5, 1.0], [0.5, 1.0, 1.5]):
        params = ModelParams(len(state), 6.0, 1.0)
        rows = dl_paths_batch(np.tile(state, (r, 1)), times, params, RngStream(4, 0))
        assert rows.shape == (2, r, len(state))
        for start in (state, np.array(state)):
            got = dl_paths_batch(start, times, params, RngStream(4, 0), replicas=r)
            assert got.tobytes() == rows.tobytes()


def test_tuple_of_rows_runs_as_replicas():
    params = ModelParams(2, 6.0, 1.0)
    rows = ((0.5, 1.0), (0.7, 1.6))
    got = dl_paths_batch(rows, [0.05, 0.1], params, RngStream(4, 0))
    want = dl_paths_batch(np.array(rows), [0.05, 0.1], params, RngStream(4, 0))
    assert got.shape == (2, 2, 2)
    assert got.tobytes() == want.tobytes()


def test_single_start_is_a_batch_of_one():
    params = ModelParams(3, 4.0, 1.0)
    out = dl_paths_batch([0.5, 1.0, 2.0], [0.0, 0.2], params, RngStream(2, 0))
    assert out.shape == (2, 1, 3)
    phi = out[:, 0].sum(axis=1)
    assert phi.shape == (2,)
    assert phi[0] == pytest.approx(3.5)


def test_paths_match_exact_law_beta_zero():
    # with beta = 0 the coordinates are independent one-particle diffusions,
    # so the Euler scheme must reproduce the exact transition law
    params = ModelParams(1, 2.0, 0.0)
    x0 = 1.2
    t = 0.7
    sim = dl_paths_batch(
        np.array([x0]), [t], params, RngStream(3, 0), replicas=4000, dt=1e-3
    )[0, :, 0]
    exact = cir_exact_transition(np.full(4000, x0), t, 2.0, np.random.default_rng(4))
    assert stats.ks_2samp(sim, exact).pvalue > 0.01


def test_matrix_params_bru():
    mp = MatrixParams.bru(3, 5)
    assert mp.kappa == pytest.approx(math.sqrt(2.5))
    assert mp.gamma == pytest.approx(0.5)
    assert mp.space_scale == pytest.approx(1.0 / 5.0)
    assert mp.time_scale == pytest.approx(1.0)
    induced = mp.induced_model()
    assert induced.alpha == pytest.approx(2.5)
    assert induced.n == 3
    with pytest.raises(Exception):
        MatrixParams.bru(5, 3)  # needs m >= n


def test_rect_ou_transition_moments():
    # entries are independent OU: mean M0 e^{-gamma t}, var kappa^2(1-e^{-2 gamma t})/(2 gamma)
    mp = MatrixParams.bru(2, 4)
    M0 = np.full((2, 4), 3.0)
    t = 0.9
    reps = 20_000
    rng = np.random.default_rng(11)
    draws = np.array([rect_ou_transition(M0, t, mp, rng)[0] for _ in range(reps)])
    mean = 3.0 * math.exp(-mp.gamma * t)
    var = mp.kappa**2 * (1 - math.exp(-2 * mp.gamma * t)) / (2 * mp.gamma)
    assert np.allclose(draws.mean(axis=0), mean, atol=4 * math.sqrt(var / reps))
    assert np.allclose(draws.var(axis=0), var, rtol=0.1)


def test_spectral_projection_known_matrix():
    # M = diag(2, 3) padded to 2x4: MM^T has eigenvalues 4, 9
    M = np.zeros((2, 4))
    M[0, 0], M[1, 1] = 2.0, 3.0
    x = spectral_projection(M)
    assert x.shape == (1, 2)  # one matrix is a stack of one
    assert np.allclose(x, [[4.0, 9.0]], atol=1e-12)


def test_matrix_path_stationary_pushforward():
    # started from the canonical spectra of stationary matrices, the aligned
    # starts have the stationary law too (the flow's law is orthogonally
    # invariant), so the canonical projection at any time has the
    # equilibrium phi pushforward Gamma(alpha n, 1)
    n, m = 3, 6
    mp = MatrixParams.bru(n, m)
    reps = 3000
    rng = np.random.default_rng(13)
    M0 = math.sqrt(m / 2.0) * rng.standard_normal((reps, n, m))
    x0 = mp.space_scale * spectral_projection(M0)
    phis = matrix_dl_path(x0, [0.6], mp, RngStream(17, 0))[0].sum(axis=1)
    a = mp.induced_model().phi_mean
    assert stats.kstest(phis, "gamma", args=(a,)).pvalue > 0.01


def test_matrix_path_start_is_projected_exactly():
    mp = MatrixParams.bru(2, 3)
    x0 = np.array([1.0, 4.0]) / 3.0
    out = matrix_dl_path(x0, [0.0], mp, RngStream(5, 0))
    assert out.shape == (1, 1, 2)  # one state is a batch of one
    assert np.allclose(out[0, 0], x0, atol=1e-12)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (4, 10)])
def test_one_matrix_is_a_stack_of_one(n, m):
    # an n x m matrix and the (1, n, m) stack are one call, bit for bit, and
    # so are one (n,) start state and the (1, n) row
    mp = MatrixParams.bru(n, m)
    M0 = np.random.default_rng(n * m).standard_normal((n, m))
    x0 = np.sort(np.random.default_rng(n * m).gamma(2.0, 1.0, n))
    times = [0.0, 0.3, 1.1]
    src = RngStream(n + m, 0)
    paths = [matrix_dl_path(x, times, mp, src).tobytes() for x in (x0, x0[None])]
    steps = [rect_ou_transition(M, 0.4, mp, src).tobytes() for M in (M0, M0[None])]
    assert len(set(paths)) == 1 and len(set(steps)) == 1
    assert rect_ou_transition(M0, 0.4, mp, src).shape == (1, n, m)
    assert spectral_projection(M0).tobytes() == spectral_projection(M0[None]).tobytes()


# Frozen reference: the proposal checks as they stood, with row reductions
# np.any(..., axis=1) and np.min(np.diff(...), axis=1), plus a row-wise
# finiteness check where the gap check does not run.  The live checks
# reduce column-wise and must accept and reject exactly the same rows.
def _reference_propose_batch(y, dt, params, gen, noise=None, drift=None):
    if drift is None:
        drift = _kernels.edl_drift_batch(y, params.alpha, params.beta)
    step_sd = math.sqrt(2.0 * dt)
    if noise is None:
        noise = gen.standard_normal(y.shape)
    prop = y + drift * dt + step_sd * noise
    tau = 6.0 * step_sd
    ok = ~np.any(prop <= -tau, axis=1)
    prop = np.abs(prop)
    prop.sort(axis=1)
    ok &= prop[:, 0] > 0.0
    if params.beta > 0 and y.shape[1] > 1:
        x = 0.25 * prop**2
        tol = 1e-12 * (1.0 + x[:, -1])
        ok &= np.min(np.diff(x, axis=1), axis=1) > tol
    else:
        ok &= np.all(np.isfinite(prop), axis=1)
    return prop, ok


def _special_rows(n, tau):
    """Proposal rows at the edges of every check, as (rows, n)."""
    base = np.linspace(1.0, 2.0, n)
    rows = []
    for j in range(n):
        for value in (-2.0 * tau, -tau, -0.5 * tau, 0.0, -0.0, np.nan, np.inf):
            row = base.copy()
            row[j] = value
            rows.append(row)
    if n > 1:
        row = base.copy()
        row[-1] = row[0]  # an exact collision
        rows.append(row)
        row = base.copy()
        row[1] = row[0] * (1.0 + 1e-14)  # a gap at the collision tolerance
        rows.append(row)
        row = base.copy()
        row[0], row[-1] = np.nan, -2.0 * tau  # NaN beside a breach
        rows.append(row)
    rows.append(np.full(n, np.nan))
    rows.append(np.full(n, -2.0 * tau))
    return np.array(rows)


@pytest.mark.parametrize("rows", [1, 7, 500])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_propose_batch_matches_row_reduction_reference(rows, n, beta):
    params = ModelParams(n, 20.0, beta)
    dt = 1e-3
    tau = 6.0 * math.sqrt(2.0 * dt)
    rng = np.random.default_rng(100 * rows + n)
    y = 2.0 * np.sqrt(np.sort(rng.gamma(3.0, 1.0, (rows, n)), axis=1))
    noise = rng.standard_normal((rows, n)) * rng.choice([1.0, 10.0, 1e3], (rows, 1))
    # zero drift and noise make the proposal the special row itself
    special = _special_rows(n, tau)[:rows]
    zero = np.zeros_like(special)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for yy, xi, drift in ((y, noise, None), (special, zero, zero)):
            got = simulate._propose_batch(yy, dt, params, None, noise=xi, drift=drift)
            want = _reference_propose_batch(yy, dt, params, None, noise=xi, drift=drift)
            assert np.array_equal(got[0], want[0], equal_nan=True)
            assert np.array_equal(got[1], want[1])
    if rows > 1:
        assert got[1].any() and not got[1].all()


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_propose_batch_rejects_nonfinite_rows(n, beta, monkeypatch):
    params = ModelParams(n, 20.0, beta)
    dt = 1e-3
    x = np.linspace(1.0, 2.0, n)
    y = 2.0 * np.sqrt(x)
    cases = [(j, value) for j in range(n) for value in (np.nan, np.inf, -np.inf)]
    rows = np.tile(y, (len(cases) + 1, 1))
    for k, (j, value) in enumerate(cases):
        rows[k, j] = value
    zero = np.zeros_like(rows)
    with np.errstate(invalid="ignore"):
        prop, ok = simulate._propose_batch(rows, dt, params, None, noise=zero, drift=zero)
    # zero drift and noise make each proposal its row; only the last is finite
    assert not ok[:-1].any()
    assert ok[-1]
    for j, value in cases:
        def drift(y, alpha, beta, j=j, value=value):
            out = np.zeros_like(y)
            out[:, j] = value
            return out

        monkeypatch.setattr(_kernels, "edl_drift_batch", drift)
        with np.errstate(invalid="ignore"):
            _, ok = simulate._propose_batch(y[None], dt, params, RngStream(3, j).generator())
        assert not ok[0]


def test_exhausted_step_halving_raises_numeric_error(monkeypatch):
    # a NaN drift rejects every proposal, so both halving recursions give up
    params = ModelParams(3, 4.0, 1.0)
    x0 = np.array([1.0, 2.0, 3.0])
    monkeypatch.setattr(_kernels, "edl_drift_batch", lambda y, a, b: np.full_like(y, np.nan))
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericError):
            dl_paths_batch(x0, [0.0, 0.1], params, RngStream(1, 0), replicas=4)
        with pytest.raises(NumericError):
            coupling.run_coupled_batch(
                x0, np.array([1.5, 2.5, 3.5]), [0.0, 0.1], params, RngStream(2, 0),
                replicas=4, kind="mirror",
            )


def test_paths_match_frozen_references(monkeypatch):
    """Euler paths and mirror-coupled pairs are bit-identical when the frozen
    masked kernel and row-reduction checks stand in for the live ones."""
    from test_backend import _masked_edl_drift_batch

    params = ModelParams(4, 4.0, 1.0)
    x0 = np.array([0.5, 1.0, 1.5, 2.0])
    other = np.array([1.0, 2.5, 4.0, 6.0])
    times = [0.0, 0.1, 0.25]

    def run():
        rejected = []
        live = simulate._propose_batch

        def counting(*args, **kwargs):
            prop, ok = live(*args, **kwargs)
            rejected.append(int(ok.size - ok.sum()))
            return prop, ok

        with monkeypatch.context() as m:
            m.setattr(simulate, "_propose_batch", counting)
            m.setattr(coupling, "_propose_batch", counting)
            paths = dl_paths_batch(x0, times, params, RngStream(5, 0), replicas=40, dt=0.02)
            pairs = coupling.run_coupled_batch(
                x0, other, times, params, RngStream(6, 0), replicas=30, kind="mirror", dt=0.02
            )
        return paths, pairs, sum(rejected)

    paths, pairs, rejected = run()
    with monkeypatch.context() as m:
        m.setattr(_kernels, "edl_drift_batch", _masked_edl_drift_batch)
        m.setattr(simulate, "_propose_batch", _reference_propose_batch)
        ref_paths, ref_pairs, ref_rejected = run()
    assert rejected > 0  # the halving branch ran
    assert rejected == ref_rejected
    assert np.array_equal(paths, ref_paths)
    for got, want in zip(pairs, ref_pairs):
        assert np.array_equal(got, want)


# Frozen reference: the matrix route's block walk with one generator.  Each
# block of `per` replicas walks the whole grid before the next starts, and
# draws its noise with one standard_normal call of the block's shape per grid
# step; every matrix is projected by its own eigensolve.
def _reference_rect_ou_transition(M, t, params, gen):
    decay = math.exp(-params.gamma * t)
    var = params.kappa**2 * (-math.expm1(-2.0 * params.gamma * t)) / (2.0 * params.gamma)
    return decay * M + math.sqrt(var) * gen.standard_normal(M.shape)


def _reference_spectral_projection(M):
    w = np.linalg.eigvalsh(M @ M.T)
    scale = max(1.0, float(np.max(np.abs(w))))
    assert np.all(np.isfinite(w)) and not np.any(w < -1e-8 * scale)
    return np.maximum(np.sort(w), 0.0)


def _reference_aligned_start(x0, params):
    M = np.zeros((params.n, params.m))
    M[np.arange(params.n), np.arange(params.n)] = np.sqrt(params.m * x0)
    return M


def _reference_matrix_dl_path(x0, times, params, gen, per):
    wall = np.asarray(times, float) / params.time_scale
    states = np.empty((len(wall), len(x0), params.n))
    for lo in range(0, len(x0), per):
        M = np.array([_reference_aligned_start(x, params) for x in x0[lo:lo + per]])
        t_prev = 0.0
        for k, tw in enumerate(wall):
            if tw > t_prev:
                M = _reference_rect_ou_transition(M, tw - t_prev, params, gen)
            t_prev = tw
            for j, one in enumerate(M):
                states[k, lo + j] = params.space_scale * _reference_spectral_projection(one)
    return states


@pytest.mark.parametrize("one_state", [False, True])
@pytest.mark.parametrize("r", [1, 7, 50])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (4, 10), (16, 16), (5, 40)])
def test_matrix_stack_matches_per_replica_reference(n, m, r, one_state, monkeypatch):
    # blocks of 3 replicas: 1, 3 and 17 blocks for r = 1, 7 and 50; the start
    # is r random rows, zero rows and rows scaled by 30 among them, or the
    # first of them repeated r times
    monkeypatch.setattr(simulate, "_MATRIX_BLOCK", 3 * n * m)
    mp = MatrixParams.bru(n, m)
    rng = np.random.default_rng(1000 * n + m)
    x0 = np.sort(rng.gamma(2.0, 1.0, (r, n)), axis=1) * rng.choice([0.0, 1.0, 30.0], (r, 1))
    if one_state:
        x0 = np.tile(x0[0], (r, 1))
    times = [0.0, 0.05, 0.4, 1.5]
    out = matrix_dl_path(x0[0] if one_state else x0, times, mp, RngStream(n + m, 0),
                         replicas=r)
    assert out.shape == (len(times), r, n)
    want = _reference_matrix_dl_path(x0, times, mp, RngStream(n + m, 0).generator(), 3)
    assert out.tobytes() == want.tobytes()
    M0 = rng.standard_normal((r, n, m)) * rng.choice([0.0, 1.0, 30.0], (r, 1, 1))
    # one transition of the whole stack draws as the replicas would in turn
    stepped = rect_ou_transition(M0, 0.3, mp, RngStream(n + m, 1))
    ref = RngStream(n + m, 1).generator()
    for k in range(r):
        want = _reference_rect_ou_transition(M0[k], 0.3, mp, ref)
        assert stepped[k].tobytes() == want.tobytes()
        assert (spectral_projection(stepped)[k].tobytes()
                == _reference_spectral_projection(want).tobytes())


def test_matrix_drivers_take_one_source():
    # an int, an RngStream and a fresh Generator of that stream are one
    # source; a list or a tuple of sources is not one
    mp = MatrixParams.bru(2, 3)
    M0 = np.random.default_rng(2).standard_normal((4, 2, 3))
    x0 = np.array([[0.0, 1.0], [0.5, 0.5], [0.2, 3.0], [1.0, 2.0]])
    for drive in (lambda rng: rect_ou_transition(M0, 0.5, mp, rng),
                  lambda rng: matrix_dl_path(x0, [0.2, 0.5], mp, rng)):
        bits = {drive(rng).tobytes() for rng in (9, RngStream(9, 0), RngStream(9).generator())}
        assert len(bits) == 1
        for rng in ([RngStream(9, k) for k in range(4)], (RngStream(9, 0),), []):
            with pytest.raises(TypeError):
                drive(rng)


def test_matrix_stack_rejects_bad_input():
    mp = MatrixParams.bru(2, 3)
    M0 = np.ones((4, 2, 3))
    src = RngStream(0, 0)
    bad_values = M0.copy()
    bad_values[2, 1, 0] = np.nan
    for M in (
        np.ones((4, 3, 3)),
        np.ones((4, 2, 3, 1)),
        bad_values,
        np.where(M0 > 0, np.inf, 0.0),
        np.where(M0 > 0, -np.inf, 0.0),
    ):
        with pytest.raises(DomainError):
            rect_ou_transition(M, 0.5, mp, src)
    # matrix_dl_path takes start states, not matrices: a matrix stack, a
    # state of the wrong size, a bad coordinate and zero replicas are refused
    for x0, replicas in ((M0, 1), (np.ones((4, 3)), 1), (np.ones(3), 1), ([1.0, np.nan], 1),
                         ([1.0, np.inf], 1), ([-1.0, 1.0], 1), ([2.0, 1.0], 1),
                         ([1.0, 2.0], 0)):
        with pytest.raises(DomainError):
            matrix_dl_path(x0, [0.5], mp, src, replicas=replicas)
    for t in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            rect_ou_transition(M0, t, mp, src)
    with pytest.raises(DomainError):
        spectral_projection(np.ones((2, 2, 3, 1)))
    # t = 0 draws nothing and returns a copy
    same = rect_ou_transition(M0, 0.0, mp, src)
    assert np.array_equal(same, M0) and same is not M0


def test_matrix_block_holds_the_benchmark_stack():
    # the benchmark's matrix simulate step, 200 replicas of 16 x 16, runs as
    # one block
    assert 200 * 16 * 16 <= simulate._MATRIX_BLOCK


def test_route_params():
    # alpha selects the Euler route (beta 1 by default, m unread); otherwise
    # the matrix route, m defaulting to n, with the induced model
    assert simulate.route_params(3, 5.0) == (ModelParams(3, 5.0, 1.0), None)
    assert simulate.route_params(3, 6, 2, m=9) == (ModelParams(3, 6.0, 2.0), None)
    params, mp = simulate.route_params(3, beta=1.0)
    assert mp == MatrixParams.bru(3, 3) and params == mp.induced_model() and params.allow_weak
    assert simulate.route_params(3, m=7)[1] == MatrixParams.bru(3, 7)
    # the matrix flow's spectrum has beta = 1; any other beta is refused
    for beta in (0.0, 2.0, 1.5):
        with pytest.raises(UnsupportedRegime):
            simulate.route_params(3, beta=beta, m=7)


@pytest.mark.parametrize(
    "n, alpha, beta, m",
    [(4, 4.0, 1.0, 8), (3, 1.5, 1.0, 3), (2, 3.5, 1.0, 7), (1, 0.5, 1.0, 1),
     (4, 3.25, 1.0, None), (3, 1.25, 1.0, None), (4, 4.0, 2.0, None), (4, 4.0, 0.0, None)],
)
def test_matrix_realization(n, alpha, beta, m):
    # beta = 1 and m = 2 alpha an integer, which delta > 0 makes at least n
    params = ModelParams(n, alpha, beta, allow_weak=True)
    want = None if m is None else MatrixParams.bru(n, m)
    assert simulate.matrix_realization(params) == want
    if want is not None:
        assert want.induced_model() == params


def test_aligned_start_spectra_are_the_start_states():
    mp = MatrixParams.bru(3, 5)
    x = np.array([0.0, 0.7, 2.5])
    one = simulate.aligned_start(x[None], mp)
    ref = np.zeros((3, 5))
    np.fill_diagonal(ref, np.sqrt(5 * x))
    assert one.shape == (1, 3, 5) and np.array_equal(one[0], ref)
    rows = np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 4.0]])
    stack = simulate.aligned_start(rows, mp)
    assert stack.shape == (2, 3, 5)
    for start, matrix in zip(rows, stack):
        assert np.allclose(spectral_projection(matrix)[0] * mp.space_scale, start, rtol=1e-13)
    # (r, n) rows only: one (n,) state is refused too
    for bad in (x, np.ones(4), np.ones((2, 4)), np.ones((1, 2, 3))):
        with pytest.raises(DomainError):
            simulate.aligned_start(bad, mp)


def _p2_mean(x0, t, params):
    """E p_2(X_t) from x0 by the degree-2 eigenfunction closed form, with
    C = 2(1 + alpha) + beta(n - 1) and N = n alpha."""
    big_n = params.n * params.alpha
    c = 2.0 * (1.0 + params.alpha) + params.beta * (params.n - 1)
    e1, e2 = math.exp(-t), math.exp(-2.0 * t)
    return e2 * np.sum(x0**2) + c * (big_n * (1.0 - e2) / 2.0 + (np.sum(x0) - big_n) * (e1 - e2))


def test_aligned_matrix_paths_have_the_exact_law():
    # the matrix flow from aligned starts, as wg_decay_estimate runs it on a
    # realizable model: E p_1 and E p_2 within 4 se of their closed forms,
    # which read beta (a beta off by 10% in C gives |z| >= 6.8 here)
    params, mp = ModelParams(4, 4.0, 1.0), MatrixParams.bru(4, 8)
    assert simulate.matrix_realization(params) == mp
    x0, times, r = np.arange(1.0, 5.0), [0.25, 0.75, 1.5], 40_000
    paths = matrix_dl_path(x0, times, mp, RngStream(2027, 0), replicas=r)
    big_n = params.n * params.alpha
    for t, cloud in zip(times, paths):
        p1, p2 = cloud.sum(axis=1), (cloud**2).sum(axis=1)
        want1 = big_n + (x0.sum() - big_n) * math.exp(-t)
        for sample, want in ((p1, want1), (p2, _p2_mean(x0, t, params))):
            se = sample.std(ddof=1) / math.sqrt(r)
            assert abs(sample.mean() - want) <= 4.0 * se, (t, sample.mean(), want, se)


@pytest.mark.parametrize("times", [0.1, [[0.1, 0.2]], [], [0.2, 0.1], [0.1, math.nan], [-0.1]])
def test_route_time_grids_rejected(times):
    params = ModelParams(3, 4.0, 1.0)
    x0 = np.array([0.5, 1.0, 2.0])
    mp = MatrixParams.bru(2, 3)
    with pytest.raises(DomainError):
        dl_paths_batch(x0, times, params, RngStream(0, 0), replicas=2)
    # valid starts, one state and (r, n) rows, so the grid is what is refused
    with pytest.raises(DomainError, match="time|grid"):
        matrix_dl_path(np.array([0.5, 1.0]), times, mp, RngStream(0, 0))
    with pytest.raises(DomainError, match="time|grid"):
        matrix_dl_path(np.ones((2, 2)), times, mp, RngStream(0, 0))


@pytest.mark.parametrize("dt", [0.0, math.nan, -0.5, math.inf])
def test_path_drivers_reject_bad_dt(dt):
    params = ModelParams(3, 4.0, 1.0)
    x0 = np.array([0.5, 1.0, 2.0])
    with pytest.raises(DomainError):
        dl_paths_batch(x0, [0.1, 0.2], params, RngStream(0, 0), replicas=2, dt=dt)
    with pytest.raises(DomainError):
        coupling.run_coupled_batch(x0, np.array([1.0, 1.5, 2.5]), [0.1, 0.2], params,
                                   RngStream(0, 0), replicas=2, dt=dt)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_path_drivers_reject_bad_starts(bad):
    # a NaN or infinite start is bad input, not exhausted step halving
    params = ModelParams(3, 4.0, 1.0)
    x0 = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, bad]])
    with pytest.raises(DomainError):
        dl_paths_batch(x0, [0.1], params, RngStream(0, 0), dt=0.01)
    for a0, b0 in ((x0, x0[[0, 0]]), (x0[[0, 0]], x0)):
        with pytest.raises(DomainError):
            coupling.run_coupled_batch(a0, b0, [0.1], params, RngStream(0, 0), dt=0.01)


@pytest.mark.parametrize("replicas", [0, -2])
def test_path_drivers_need_a_start_row(replicas):
    params = ModelParams(3, 4.0, 1.0)
    x0, y0 = np.array([1.0, 2.0, 3.0]), np.array([1.5, 2.5, 3.5])
    with pytest.raises(DomainError):
        dl_paths_batch(x0, [0.1], params, RngStream(0, 0), replicas=replicas)
    with pytest.raises(DomainError):
        coupling.run_coupled_batch(x0, y0, [0.1], params, RngStream(0, 0), replicas=replicas)
    with pytest.raises(DomainError):
        dl_paths_batch(np.empty((0, 3)), [0.1], params, RngStream(0, 0))


# Frozen reference: the solo driver as it stood, with its own grid walk and
# its own halving recursion.
def _reference_advance_rows(y, dt, params, gen, depth):
    prop, ok = simulate._propose_batch(y, dt, params, gen)
    if np.all(ok):
        return prop
    if depth >= simulate.DT_HALVING_LIMIT:
        raise NumericError("step halving exhausted")
    bad = ~ok
    sub = y[bad]
    half = 0.5 * dt
    sub = _reference_advance_rows(sub, half, params, gen, depth + 1)
    sub = _reference_advance_rows(sub, half, params, gen, depth + 1)
    prop[bad] = sub
    return prop


def _reference_dl_paths_batch(x0, times, params, gen, dt):
    out = np.empty((len(times), x0.shape[0], x0.shape[1]))
    y = 2.0 * np.sqrt(x0)
    t_now = 0.0
    for k, t in enumerate(np.asarray(times, dtype=float)):
        span = t - t_now
        if span > 0:
            n_steps = max(1, int(math.ceil(span / dt - 1e-12)))
            h = span / n_steps
            for _ in range(n_steps):
                y = _reference_advance_rows(y, h, params, gen, 0)
        out[k] = 0.25 * y**2
        t_now = t
    return out


def test_solo_driver_matches_frozen_reference(monkeypatch):
    params = ModelParams(4, 4.0, 1.0)
    x0 = np.tile([0.5, 1.0, 1.5, 2.0], (50, 1))
    rejected = []
    live = simulate._propose_batch

    def counting(*args, **kwargs):
        prop, ok = live(*args, **kwargs)
        rejected.append(int(ok.size - ok.sum()))
        return prop, ok

    monkeypatch.setattr(simulate, "_propose_batch", counting)
    for times in ([0.0, 0.1, 0.3, 1.0], [0.05, 0.5]):
        got = dl_paths_batch(x0, times, params, RngStream(7, 0), dt=0.02)
        want = _reference_dl_paths_batch(x0, times, params, RngStream(7, 0).generator(), 0.02)
        assert got.tobytes() == want.tobytes()
    assert sum(rejected) > 0  # the halving branch ran
