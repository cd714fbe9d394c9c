import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyson_laguerre import (
    CollisionError,
    DomainError,
    MatrixParams,
    ModelParams,
    Polynomial,
    RngStream,
    SizeMismatch,
    ValidationError,
    apply_generator,
    carre_du_champ,
    carre_du_champ2,
    check_states,
    cutoff_predict,
    dl_drift,
    dl_paths_batch,
    edl_drift,
    edl_gamma2,
    gamma2_definitional,
    gamma2_explicit,
    geodesic_point,
    gibbs_energy,
    gibbs_gradient,
    matrix_dl_path,
    observable_phi,
    phi_polynomial,
    riemannian_distance,
    run_coupled_batch,
    wg_decay_estimate,
)
from dyson_laguerre.coupling import reflection_coalesced_law
from dyson_laguerre.equilibrium import edl_gibbs_energy
from dyson_laguerre.model import collision_tol, dl_drift_jacobian
from dyson_laguerre.simulate import aligned_start


# hand-computed drift at n=2, alpha=3, beta=2, x=(1,3):
#   b1 = 3 - 1 + (1+3)/(1-3) = 0,  b2 = 3 - 3 + (1+3)/(3-1) = 2
def test_drift_frozen_value():
    params = ModelParams(2, 3.0, 2.0)
    b = dl_drift(np.array([1.0, 3.0]), params)
    assert np.allclose(b, [0.0, 2.0], atol=1e-14)


def test_drift_beta_zero_decouples():
    params = ModelParams(3, 2.5, 0.0)
    x = np.array([0.5, 1.0, 4.0])
    b = dl_drift(x, params)
    assert np.allclose(b, 2.5 - x, atol=1e-14)


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
    for bad in ([2.0, 1.0], [-0.1, 1.0], [math.nan, 1.0], [math.inf], [], [[]],
                [[0.5, 1.0], [1.0, 0.5]], 1.0, np.ones((2, 2, 2))):
        with pytest.raises(DomainError):
            check_states(bad)
    s = check_states([0.0, 0.0, 1.0])  # weak order is fine at rest
    assert s.dtype == float and s.shape == (3,)
    assert np.min(np.diff(s)) == 0.0
    rows = check_states([[0.0, 1.0], [2.0, 2.0]])  # each row is a state
    assert rows.shape == (2, 2)


# a model that the 3 x 8 matrix flow realizes, and one that no flow does
_REALIZED = ModelParams(3, 4.0, 1.0)
_EULER_ONLY = ModelParams(3, 4.25, 1.0)
_OTHER = np.array([0.5, 1.0, 2.0])

# entry point -> (call on a state x, whether x = (0, 1, 2) passes); a 0
# coordinate is refused only where a formula or the Euler scheme needs x > 0
_STATE_ENTRY_POINTS = {
    "dl_drift": (lambda x: dl_drift(x, _REALIZED), True),
    "dl_drift_jacobian": (lambda x: dl_drift_jacobian(x, _REALIZED), True),
    "apply_generator": (lambda x: apply_generator(phi_polynomial(_REALIZED), x, _REALIZED),
                        True),
    "observable_phi": (lambda x: observable_phi(x, _REALIZED), True),
    "gibbs_energy": (lambda x: gibbs_energy(x, _REALIZED), False),
    "gibbs_gradient": (lambda x: gibbs_gradient(x, _REALIZED), False),
    "carre_du_champ": (lambda x: carre_du_champ(phi_polynomial(_REALIZED), x), True),
    "carre_du_champ2": (lambda x: carre_du_champ2(phi_polynomial(_REALIZED),
                                                  phi_polynomial(_REALIZED), x), True),
    "riemannian_distance": (lambda x: riemannian_distance(x, _OTHER), True),
    "geodesic_point": (lambda x: geodesic_point(x, _OTHER, 0.5), True),
    "gamma2_explicit": (lambda x: gamma2_explicit(phi_polynomial(_REALIZED), x, _REALIZED),
                        True),
    "gamma2_definitional": (
        lambda x: gamma2_definitional(phi_polynomial(_REALIZED), x, _REALIZED), True),
    "cutoff_predict": (lambda x: cutoff_predict("TV", x, _REALIZED), True),
    "aligned_start": (lambda x: aligned_start(x[None], MatrixParams.bru(3, 8)), True),
    "matrix_dl_path": (lambda x: matrix_dl_path(x, [0.1], MatrixParams.bru(3, 8),
                                                RngStream(0, 0)), True),
    "dl_paths_batch": (lambda x: dl_paths_batch(x, [0.1], _REALIZED, RngStream(0, 0)), False),
    "run_coupled_batch-mirror": (
        lambda x: run_coupled_batch(x, _OTHER, [0.1], _REALIZED, RngStream(0, 0)), False),
    "reflection_coalesced_law": (lambda x: reflection_coalesced_law(x, _OTHER, 1.0), True),
    "run_coupled_batch-reflection": (
        lambda x: run_coupled_batch(x, _OTHER, [0.1], _REALIZED, RngStream(0, 0),
                                    kind="reflection"), True),
    "wg_decay_estimate-euler": (
        lambda x: wg_decay_estimate(x, [0.1], _EULER_ONLY, 100, RngStream(0, 0)), False),
    "wg_decay_estimate-matrix": (
        lambda x: wg_decay_estimate(x, [0.1], _REALIZED, 100, RngStream(0, 0)), True),
}


@pytest.mark.parametrize("state", [[2.0, 1.0, 0.5], [-0.1, 1.0, 2.0], [math.nan, 1.0, 2.0], [],
                                   [0.5, 1.0], [0.0, 1.0, 2.0]],
                         ids=["descending", "negative", "nan", "empty", "wrong-shape", "zero"])
@pytest.mark.parametrize("entry", sorted(_STATE_ENTRY_POINTS))
def test_every_entry_point_checks_its_states(entry, state):
    call, zero_passes = _STATE_ENTRY_POINTS[entry]
    if state == [0.0, 1.0, 2.0] and zero_passes:
        call(np.array(state))
        return
    # the intrinsic distance takes two states of any one size
    two_state = entry in ("riemannian_distance", "geodesic_point", "reflection_coalesced_law")
    error = SizeMismatch if state == [0.5, 1.0] and two_state else DomainError
    with pytest.raises(error):
        call(np.array(state))


# every square-root entry point, at n = 2, alpha = 3, beta = 1
_SQRT = ModelParams(2, 3.0, 1.0)
_SQRT_ENTRY_POINTS = (
    lambda y: edl_drift(y, _SQRT),
    lambda y: edl_gibbs_energy(y, _SQRT),
    lambda y: edl_gamma2(phi_polynomial(_SQRT), y, _SQRT),
)


@pytest.mark.parametrize("y, error", [
    ([2.0], DomainError),
    ([1.0, 2.0, 3.0], DomainError),
    ([math.nan, 2.0], DomainError),
    ([2.0, math.inf], DomainError),
    ([0.0, 2.0], DomainError),
    ([-1.0, 2.0], DomainError),
    ([2.0, 2.0], CollisionError),
    ([2.0, 2.0 * (1.0 + 1e-14)], CollisionError),
    ([2.0 * (1.0 + 1e-14), 2.0], CollisionError),
], ids=["short", "long", "nan", "inf", "zero", "negative", "tie", "near-tie", "near-tie-desc"])
def test_square_root_entry_points_refuse_alike(y, error):
    # one rule: the same class and message from each entry point, and a
    # near tie whose squares are within collision_tol is a collision
    messages = set()
    for call in _SQRT_ENTRY_POINTS:
        with pytest.raises(DomainError) as info:
            call(np.array(y))
        assert info.type is error
        messages.add(str(info.value))
    assert len(messages) == 1


def test_square_root_entry_points_take_what_the_rule_passes():
    # squares just beyond collision_tol pass, in either order, as do ties
    # without interaction
    gap = 4.0 * (1.0 + 1e-10)
    for y in ([2.0, math.sqrt(gap)], [math.sqrt(gap), 2.0]):
        assert collision_tol(np.array(y) ** 2) < gap - 4.0
        for call in _SQRT_ENTRY_POINTS:
            assert np.all(np.isfinite(call(np.array(y))))
    free = ModelParams(2, 3.0, 0.0)
    assert np.isfinite(edl_gibbs_energy([2.0, 2.0], free))
    assert np.all(np.isfinite(edl_drift([2.0, 2.0], free)))
    assert np.isfinite(edl_gamma2(phi_polynomial(free), [2.0, 2.0], free))


def test_polynomial_arity_is_checked():
    params = ModelParams(3, 4.0, 1.0)
    f = phi_polynomial(ModelParams(2, 3.0, 1.0))
    x = np.array([0.5, 1.0, 2.0])
    for call in (lambda: apply_generator(f, x, params),
                 lambda: gamma2_explicit(f, x, params),
                 lambda: gamma2_definitional(f, x, params),
                 lambda: carre_du_champ2(phi_polynomial(params), f, x),
                 lambda: edl_gamma2(f, 2.0 * np.sqrt(x), params)):
        with pytest.raises(DomainError, match="f has 2 variables, expected 3"):
            call()


def test_collision_rejected_by_drift():
    params = ModelParams(2, 3.0, 2.0)
    x = np.array([1.0, 1.0 + 1e-14])
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
        x = np.sort(rng.gamma(3.0, 1.0, 4))
        got = apply_generator(f, x, params)
        want = params.n * params.alpha - float(np.sum(x))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_observable_phi_centering():
    params = ModelParams(3, 4.0, 1.0)
    obs = observable_phi(np.array([2.0, 4.0, 6.0]), params)
    assert obs.phi_raw == pytest.approx(12.0)
    assert obs.phi_centered == pytest.approx(0.0)
    assert obs.phi_l2norm_sq == pytest.approx(12.0)


def test_edl_drift_change_of_variables():
    # b_y(2 sqrt x) = (b_x(x) - 1/2) / sqrt(x), an algebraic identity
    rng = np.random.default_rng(11)
    params = ModelParams(5, 7.0, 2.0)
    for _ in range(25):
        x = np.sort(rng.gamma(4.0, 1.0, 5)) + np.arange(5) * 0.1
        bx = dl_drift(x, params)
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
    jac = dl_drift_jacobian(x, params)
    h = 1e-6
    for i in range(4):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        num = (dl_drift(xp, params) - dl_drift(xm, params)) / (2 * h)
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
    f = Polynomial.coordinate(n, 0) * Polynomial.coordinate(n, n - 1)
    g = Polynomial.coordinate(n, 0)
    lhs = apply_generator(f * a + g * b, coords, params)
    rhs = a * apply_generator(f, coords, params) + b * apply_generator(g, coords, params)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_sorted_arrays_make_valid_states(values):
    arr = check_states(np.sort(np.asarray(values)))
    assert np.all(np.diff(arr) >= 0)
    assert np.all(arr >= 0)
