import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyson_laguerre import (
    CollisionError,
    DomainError,
    ModelParams,
    ParticleState,
    Polynomial,
    ValidationError,
    apply_generator,
    dl_drift,
    edl_drift,
    observable_phi,
    phi_polynomial,
)
from dyson_laguerre.model import collision_tol, dl_drift_jacobian


# hand-computed drift at n=2, alpha=3, beta=2, x=(1,3):
#   b1 = 3 - 1 + (1+3)/(1-3) = 0,  b2 = 3 - 3 + (1+3)/(3-1) = 2
def test_drift_frozen_value():
    params = ModelParams(2, 3.0, 2.0)
    b = dl_drift(ParticleState([1.0, 3.0]), params)
    assert np.allclose(b, [0.0, 2.0], atol=1e-14)


def test_drift_beta_zero_decouples():
    params = ModelParams(3, 2.5, 0.0)
    x = ParticleState([0.5, 1.0, 4.0])
    b = dl_drift(x, params)
    assert np.allclose(b, 2.5 - x.as_array(), atol=1e-14)


def test_params_validation():
    with pytest.raises(ValidationError):
        ModelParams(4, 2.0, 1.0)  # delta = 0.5 <= 1
    with pytest.raises(ValidationError):
        ModelParams(2, 1.0, 0.5)  # beta below 1 without the weak flag
    with pytest.raises(ValidationError):
        ModelParams(2, -1.0, 0.0)
    p = ModelParams(4, 2.0, 1.0, allow_weak=True)  # delta = 0.5 > 0 allowed weakly
    assert p.delta == pytest.approx(0.5)


def test_delta_and_phi_mean():
    p = ModelParams(5, 6.0, 2.0)
    assert p.delta == pytest.approx(6.0 - 4.0)
    assert p.phi_mean == pytest.approx(30.0)


def test_state_validation():
    with pytest.raises(DomainError):
        ParticleState([2.0, 1.0])
    with pytest.raises(DomainError):
        ParticleState([-0.1, 1.0])
    with pytest.raises(DomainError):
        ParticleState([])
    s = ParticleState([0.0, 0.0, 1.0])  # weak order is fine at rest
    assert s.min_gap() == 0.0


def test_state_frozen():
    s = ParticleState([1.0, 2.0])
    with pytest.raises(ValueError):
        s.coords[0] = 5.0


def test_collision_rejected_by_drift():
    params = ModelParams(2, 3.0, 2.0)
    x = ParticleState([1.0, 1.0 + 1e-14])
    with pytest.raises(CollisionError):
        dl_drift(x, params)


def test_collision_tol_scales():
    assert collision_tol(np.array([1.0])) == pytest.approx(2e-12)
    assert collision_tol(np.array([1e6])) > 1e-7


def test_eigenfunction_relation():
    # G phi = n*alpha - phi at any admissible state
    rng = np.random.default_rng(3)
    params = ModelParams(4, 5.0, 2.0)
    f = phi_polynomial(params)
    for _ in range(20):
        x = ParticleState(np.sort(rng.gamma(3.0, 1.0, 4)))
        got = apply_generator(f, x, params)
        want = params.n * params.alpha - float(np.sum(x.as_array()))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_observable_phi_centering():
    params = ModelParams(3, 4.0, 1.0)
    obs = observable_phi(ParticleState([2.0, 4.0, 6.0]), params)
    assert obs.phi_raw == pytest.approx(12.0)
    assert obs.phi_centered == pytest.approx(0.0)
    assert obs.phi_l2norm_sq == pytest.approx(12.0)


def test_edl_drift_change_of_variables():
    # b_y(2 sqrt x) = (b_x(x) - 1/2) / sqrt(x), an algebraic identity
    rng = np.random.default_rng(11)
    params = ModelParams(5, 7.0, 2.0)
    for _ in range(25):
        x = np.sort(rng.gamma(4.0, 1.0, 5)) + np.arange(5) * 0.1
        bx = dl_drift(ParticleState(x), params)
        by = edl_drift(2.0 * np.sqrt(x), params)
        assert np.allclose(by, (bx - 0.5) / np.sqrt(x), rtol=1e-12, atol=1e-12)


def test_edl_drift_rejects_nonpositive():
    params = ModelParams(2, 3.0, 1.0)
    with pytest.raises(DomainError):
        edl_drift(np.array([0.0, 1.0]), params)


def test_drift_jacobian_matches_finite_differences():
    # convention: jac[i, j] = d b_j / d x_i
    params = ModelParams(4, 6.0, 2.0)
    x = np.array([0.7, 1.9, 3.2, 5.5])
    jac = dl_drift_jacobian(ParticleState(x), params)
    h = 1e-6
    for i in range(4):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        num = (dl_drift(ParticleState(xp), params) - dl_drift(ParticleState(xm), params)) / (2 * h)
        assert np.allclose(jac[i, :], num, rtol=1e-5, atol=1e-5)


def test_polynomial_algebra():
    f = Polynomial.coordinate(2, 0) * Polynomial.coordinate(2, 1)  # x0*x1
    g = f + Polynomial.constant(2, 1.0)
    assert g(np.array([2.0, 3.0])) == pytest.approx(7.0)
    assert g.diff(0)(np.array([2.0, 3.0])) == pytest.approx(3.0)
    assert g.diff(0).diff(1)(np.array([9.0, 9.0])) == pytest.approx(1.0)
    assert (f - f).degree() == 0


def test_polynomial_rejects_malformed_input():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        Polynomial(2, {(1, -1): 1.0})
    with pytest.raises(ValueError):
        Polynomial(2, {(1, 0): "x"})
    p2, p3 = Polynomial.coordinate(2, 0), Polynomial.coordinate(3, 0)
    for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError):
            combine(p2, p3)
        with pytest.raises(ValueError):
            combine(p3, p2)


@given(
    st.lists(st.floats(min_value=0.05, max_value=50.0), min_size=2, max_size=6),
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_polynomial_linearity_of_generator(coords, a, b):
    coords = np.sort(np.asarray(coords))
    if np.min(np.diff(coords)) < 1e-3:
        return
    n = coords.size
    params = ModelParams(n, 2.0 + (n - 1), 2.0)
    x = ParticleState(coords)
    f = Polynomial.coordinate(n, 0) * Polynomial.coordinate(n, n - 1)
    g = Polynomial.coordinate(n, 0)
    lhs = apply_generator(f * a + g * b, x, params)
    rhs = a * apply_generator(f, x, params) + b * apply_generator(g, x, params)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_sorted_arrays_make_valid_states(values):
    s = ParticleState(np.sort(np.asarray(values)))
    arr = s.as_array()
    assert np.all(np.diff(arr) >= 0)
    assert np.all(arr >= 0)
