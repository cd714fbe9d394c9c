import numpy as np
import pytest
from scipy import stats

from dyson_laguerre import (
    CollisionError,
    DomainError,
    ModelParams,
    ParticleState,
    RngStream,
    UnsupportedRegime,
    build_x0,
    dl_paths_batch,
    dl_drift,
    edl_drift,
    gibbs_energy,
    gibbs_gradient,
    log_density_unnormalized,
    sample_equilibrium_batch,
)
from dyson_laguerre.equilibrium import edl_gibbs_energy


def test_batch_shape_and_order():
    params = ModelParams(5, 6.0, 2.0)
    draws = sample_equilibrium_batch(params, RngStream(0, 0), 50)
    assert draws.shape == (50, 5)
    assert np.all(np.diff(draws, axis=1) > 0)
    assert np.all(draws > 0)


def test_phi_pushforward_is_gamma():
    # sum of coordinates at equilibrium is Gamma(alpha n, 1) for any beta
    for beta in (0.0, 1.0, 2.0):
        alpha = 4.0
        params = ModelParams(3, alpha, beta)
        draws = sample_equilibrium_batch(params, RngStream(1, int(beta)), 20_000)
        phis = draws.sum(axis=1)
        assert stats.kstest(phis, "gamma", args=(alpha * 3,)).pvalue > 0.01, beta


def test_phi_mean_matches():
    params = ModelParams(4, 5.0, 2.0)
    draws = sample_equilibrium_batch(params, RngStream(2, 0), 40_000)
    phis = draws.sum(axis=1)
    se = phis.std() / np.sqrt(phis.size)
    assert abs(phis.mean() - params.phi_mean) < 3 * se


def test_matrix_sampler_agrees_with_tridiagonal():
    # beta = 1, 2*alpha integral: both samplers are exact, so the largest
    # coordinate must have the same law
    params = ModelParams(3, 3.0, 1.0)
    a = sample_equilibrium_batch(params, RngStream(3, 0), 8000, method="tridiagonal")
    b = sample_equilibrium_batch(params, RngStream(3, 1), 8000, method="matrix")
    assert stats.ks_2samp(a[:, -1], b[:, -1]).pvalue > 0.01
    assert stats.ks_2samp(a[:, 0], b[:, 0]).pvalue > 0.01


def test_long_run_sampler_near_exact():
    # Euler paths relaxed for 20 time units from a ramp scaled by alpha/n
    # are an approximate, independent cross-check of the exact sampler
    params = ModelParams(3, 4.0, 2.0)
    a = sample_equilibrium_batch(params, RngStream(4, 0), 3000, method="tridiagonal")
    x0 = np.tile((4.0 / 3.0) * np.arange(1.0, 4.0), (3000, 1))
    b = dl_paths_batch(x0, [20.0], params, RngStream(4, 1))[0]
    assert stats.ks_2samp(a.sum(axis=1), b.sum(axis=1)).pvalue > 0.005


def test_matrix_sampler_guards():
    with pytest.raises(UnsupportedRegime):
        sample_equilibrium_batch(ModelParams(3, 4.0, 2.0), RngStream(5, 0), 2, method="matrix")
    with pytest.raises(UnsupportedRegime):
        sample_equilibrium_batch(ModelParams(3, 3.3, 1.0), RngStream(5, 1), 2, method="matrix")
    with pytest.raises(UnsupportedRegime):
        sample_equilibrium_batch(ModelParams(2, 3.0, 1.0), RngStream(5, 2), 2, method="nope")


def test_sample_equilibrium_single():
    # a single draw is a batch of one
    draws = sample_equilibrium_batch(ModelParams(4, 6.0, 2.0), RngStream(6, 0), 1)
    assert draws.shape == (1, 4)
    assert ParticleState(draws[0]).min_gap() > 0


def test_drift_energy_identity():
    # b_i = 1 - x_i dE/dx_i links the drift to the invariant density
    rng = np.random.default_rng(17)
    params = ModelParams(5, 7.0, 2.0)
    for _ in range(20):
        x = np.sort(rng.gamma(4.0, 1.0, 5)) + np.arange(5) * 0.05
        state = ParticleState(x)
        b = dl_drift(state, params)
        g = gibbs_gradient(state, params)
        assert np.allclose(b, 1.0 - x * g, rtol=1e-10, atol=1e-10)


def test_gradient_matches_energy_finite_differences():
    params = ModelParams(3, 5.0, 2.0)
    x = np.array([0.8, 2.1, 4.4])
    g = gibbs_gradient(ParticleState(x), params)
    h = 1e-6
    for i in range(3):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        num = (gibbs_energy(ParticleState(xp), params) - gibbs_energy(ParticleState(xm), params)) / (2 * h)
        assert g[i] == pytest.approx(num, rel=1e-5, abs=1e-5)


def test_log_density_ratio_detects_equilibrium():
    # importance ratio check: for two states x, z the density ratio equals
    # exp(E(z) - E(x)); wire through log_density_unnormalized
    params = ModelParams(3, 5.0, 2.0)
    x = ParticleState([1.0, 2.0, 3.0])
    z = ParticleState([1.5, 2.5, 3.5])
    lr = log_density_unnormalized(x, params) - log_density_unnormalized(z, params)
    assert lr == pytest.approx(gibbs_energy(z, params) - gibbs_energy(x, params))


def test_energy_rejects_bad_states():
    params = ModelParams(2, 3.0, 1.0)
    with pytest.raises(DomainError):
        gibbs_energy(ParticleState([0.0, 1.0]), params)


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_sqrt_drift_is_minus_energy_gradient(beta):
    # the implicit step of the square-root system rests on drift = -grad E_y
    params = ModelParams(5, 8.0, beta)
    gen = np.random.default_rng(31)
    h = 1e-6
    for _ in range(5):
        y = 2.0 * np.sqrt(sample_equilibrium_batch(params, gen, 1)[0])
        grad = np.empty_like(y)
        for i in range(y.size):
            yp, ym = y.copy(), y.copy()
            yp[i] += h
            ym[i] -= h
            grad[i] = (edl_gibbs_energy(yp, params) - edl_gibbs_energy(ym, params)) / (2 * h)
        drift = edl_drift(y, params)
        np.testing.assert_allclose(grad, -drift, rtol=1e-6)


def test_sqrt_energy_rejects_bad_states():
    params = ModelParams(3, 5.0, 1.0)
    with pytest.raises(CollisionError):
        edl_gibbs_energy([1.0, 2.0, 2.0], params)
    with pytest.raises(DomainError):
        edl_gibbs_energy([0.0, 1.0, 2.0], params)
    with pytest.raises(DomainError):
        edl_gibbs_energy([1.0, 2.0], params)
    # without interaction coinciding coordinates are admissible
    free = ModelParams(3, 5.0, 0.0)
    assert np.isfinite(edl_gibbs_energy([1.0, 2.0, 2.0], free))


def test_build_x0_presets():
    params = ModelParams(4, 6.0, 2.0)
    gen = np.random.default_rng(0)

    state, note = build_x0("zero", params, gen)
    assert np.allclose(state.as_array(), 0.0)

    state, note = build_x0("zero", params, gen, positive=True)
    assert np.all(state.as_array() > 0)
    assert note  # explains the nudge away from the boundary

    state, _ = build_x0("ramp", params, gen)
    assert np.allclose(state.as_array(), [1.0, 2.0, 3.0, 4.0])

    state, _ = build_x0("outlier", params, gen)
    arr = state.as_array()
    assert arr[-1] >= 10 * params.alpha or arr[-1] >= 2 * params.n

    state, _ = build_x0("equilibrium", params, gen)
    assert state.min_gap() > 0

    with pytest.raises(DomainError):
        build_x0("diagonal", params, gen)
