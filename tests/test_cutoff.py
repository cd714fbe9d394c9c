import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats
from scipy.special import gammainc, ndtri

from dyson_laguerre import (
    DomainError,
    MatrixParams,
    ModelParams,
    UnsupportedRegime,
    cir_exact_transition,
    cutoff_predict,
    duhamel_variance,
    kl_upper_bound_chain,
    lb_l2_witness,
    lift_matrix_bounds,
    mixing_time_ou,
    ou_closed_form_distances,
    phi_law_distances,
    run_cutoff_profile,
    tv_lower_bound_formula,
    zero_start_chi2,
    zero_start_kl,
    zero_start_tv,
)
from dyson_laguerre.cutoff import CutoffProfile, ProfileRow, _log_0f1


def test_mixing_time_hand_values():
    # theta = sigma = 1, |z0|^2 = 4e, one entry:
    #   TV branch log(4e/4) = 1 beats log(1/4), so t = 1/2
    p, z2 = MatrixParams(1, 1, kappa=1.0, gamma=1.0), 4.0 * math.e
    assert mixing_time_ou("TV", p, z2) == pytest.approx(0.5, abs=1e-12)
    assert mixing_time_ou("KL", p, z2) == pytest.approx((1.0 + math.log(4.0)) / 2.0)
    assert mixing_time_ou("L2", p, z2) == pytest.approx((1.0 + math.log(8.0)) / 2.0)
    assert mixing_time_ou("W", p, z2) == pytest.approx((1.0 + math.log(4.0)) / 2.0)


def test_mixing_time_dimensional_branch():
    # centered start leaves only the dimensional branch
    p = MatrixParams(4, 4, kappa=1.0, gamma=1.0)
    assert mixing_time_ou("TV", p, 0.0) == pytest.approx(math.log(4.0) / 2.0)
    p = MatrixParams(8, 8, kappa=1.0, gamma=1.0)
    assert mixing_time_ou("TV", p, 0.0) == pytest.approx(math.log(16.0) / 2.0)


def test_mixing_time_vacuous_raises():
    p = MatrixParams(1, 1, kappa=1.0, gamma=1.0)
    with pytest.raises(DomainError):
        mixing_time_ou("huh", p, 0.0)


@pytest.mark.parametrize("kind", ["TV", "KL", "L2", "W"])
def test_mixing_time_is_never_negative(kind):
    # from a centered start at N = 1 every branch's logarithm is negative
    # (the time would be -0.693, -0.347, -0.173 and -0.520): no prediction
    with pytest.raises(DomainError, match="N = n\\*m = 1"):
        mixing_time_ou(kind, MatrixParams(1, 1, 1.0, 1.0), 0.0)


def test_mixing_time_keeps_only_positive_branches():
    # N = 6: the W branch log sqrt(6/8) < 0 would give -0.072; TV's
    # log(6/4) > 0 stands
    p = MatrixParams(2, 3, 1.0, 1.0)
    with pytest.raises(DomainError, match="N = n\\*m = 6"):
        mixing_time_ou("W", p, 0.0)
    assert mixing_time_ou("TV", p, 0.0) == math.log(1.5) / 2.0
    # a start branch of exactly log 1 = 0 is not positive either
    with pytest.raises(DomainError):
        mixing_time_ou("W", p, 1.0)


def test_mixing_time_aliases():
    p = MatrixParams(2, 2, kappa=1.0, gamma=0.5)
    assert mixing_time_ou("w2", p, 3.0) == mixing_time_ou("W", p, 3.0)
    assert mixing_time_ou("wasserstein", p, 3.0) == mixing_time_ou("W", p, 3.0)


def test_cutoff_predict_sde_route():
    # start with phi at its mean: witness drops, dimensional floor rules
    params = ModelParams(4, 3.5, 1.0)
    pred = cutoff_predict("TV", np.array([2.0, 3.0, 4.0, 5.0]), params)
    assert pred.c_lower == pytest.approx(0.5 * math.log(14.0))
    assert pred.c_upper == pytest.approx(math.log(14.0))
    assert pred.source["lower"] == "dimensional-floor"
    assert not pred.flagged


def test_cutoff_predict_matrix_route_zero_start():
    from dyson_laguerre import MatrixParams

    mp = MatrixParams.bru(4, 4)
    params = mp.induced_model()
    pred = cutoff_predict("TV", np.zeros(4), params, matrix=mp)
    assert pred.c_lower == pytest.approx(0.5 * math.log(8.0))
    assert pred.c_upper == pytest.approx(math.log(4.0))
    assert pred.source["upper"] == "matrix-dimension"


def test_cutoff_predict_flags_inversion():
    # tiny N with a huge start: the witness lower edges past the upper
    params = ModelParams(1, 0.9, 0.0)
    pred = cutoff_predict("TV", np.array([1e6]), params)
    assert pred.flagged
    assert pred.c_lower <= pred.c_upper


def test_cutoff_predict_flags_uncertified_lower():
    params = ModelParams(1, 0.5, 0.0)
    pred = cutoff_predict("TV", np.array([0.5]), params)
    assert pred.flagged
    assert "certify" in pred.flag_reason


@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.1, max_value=50.0),
    st.sampled_from(["TV", "KL", "L2", "W"]),
)
@settings(max_examples=80, deadline=None)
def test_cutoff_predict_bracket_never_inverted(n, x_scale, kind):
    params = ModelParams(n, 2.0 + (n - 1), 2.0) if n > 1 else ModelParams(1, 3.0, 0.0)
    x0 = np.arange(1.0, n + 1.0) * x_scale
    pred = cutoff_predict(kind, x0, params)
    assert pred.c_lower <= pred.c_upper + 1e-12


def test_duhamel_variance_hand_value():
    params = ModelParams(2, 4.0, 2.0)  # N = 8
    x0 = np.array([4.0, 6.0])  # phi_raw = 10
    c = 1.0 - math.exp(-1.0)
    want = 8.0 * c**2 + 2.0 * 10.0 * c * math.exp(-1.0)
    assert duhamel_variance(x0, 1.0, params) == pytest.approx(want, rel=1e-12)
    assert duhamel_variance(x0, 0.0, params) == 0.0
    # long horizon: variance tends to the equilibrium value N
    assert duhamel_variance(x0, 50.0, params) == pytest.approx(8.0, rel=1e-9)


def test_lb_l2_witness():
    params = ModelParams(2, 4.0, 2.0)  # N = 8
    x0 = np.array([5.0, 7.0])  # phi_centered = 4
    assert lb_l2_witness(x0, 0.0, params) == pytest.approx(16.0 / 8.0)
    assert lb_l2_witness(x0, 1.0, params) == pytest.approx(2.0 * math.exp(-2.0))
    assert lb_l2_witness(np.array([3.0, 5.0]), 1.0, params) == 0.0


def test_tv_lower_bound_clamped():
    params = ModelParams(2, 4.0, 2.0)
    far = np.array([100.0, 200.0])
    near = np.array([3.0, 5.0])  # centered
    assert tv_lower_bound_formula(far, 0.0, params) > 0.9
    assert tv_lower_bound_formula(near, 1.0, params) == 0.0
    assert tv_lower_bound_formula(far, 50.0, params) == 0.0  # clamped at zero
    vals = [tv_lower_bound_formula(far, t, params) for t in np.linspace(0, 3, 10)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_lift_matrix_bounds():
    assert lift_matrix_bounds("TV", 0.3, 2, 3) == 1.0
    assert lift_matrix_bounds("TV", 0.1, 2, 3) == pytest.approx(0.6)
    assert lift_matrix_bounds("KL", 0.3, 2, 3) == pytest.approx(1.8)
    want_l2 = math.sqrt((1.0 + 0.09) ** 6 - 1.0)
    assert lift_matrix_bounds("L2", 0.3, 2, 3) == pytest.approx(want_l2, rel=1e-12)
    assert lift_matrix_bounds("L2", 10.0, 20, 20) == math.inf
    assert lift_matrix_bounds("W", 0.5, 4, 9) == pytest.approx(2.0 * 2.0 * 0.5)
    with pytest.raises(DomainError):
        lift_matrix_bounds("TV", -0.1, 2, 2)
    with pytest.raises(DomainError):
        lift_matrix_bounds("TV", math.inf, 2, 2)


def test_kl_chain_hand_value():
    params = ModelParams(2, 4.0, 2.0)  # N = 8
    x0 = np.array([4.0, 6.0])  # phi_raw = 10
    ratio = math.exp(-0.5) / (1.0 - math.exp(-0.5))
    want = ratio * 18.0 * math.exp(-1.0)
    assert kl_upper_bound_chain(x0, 1.0, 0.5, params) == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        kl_upper_bound_chain(x0, 1.0, 0.0, params)


_NAN = math.nan


@pytest.mark.parametrize(
    "bound",
    [
        lambda x0, p: lb_l2_witness(x0, _NAN, p),
        lambda x0, p: duhamel_variance(x0, _NAN, p),
        lambda x0, p: tv_lower_bound_formula(x0, _NAN, p),
        lambda x0, p: kl_upper_bound_chain(x0, _NAN, 0.5, p),
        lambda x0, p: kl_upper_bound_chain(x0, 1.0, _NAN, p),
    ],
    ids=["lb_l2_witness", "duhamel_variance", "tv_lower_bound_formula", "kl_chain-t",
         "kl_chain-eta"],
)
def test_cutoff_bounds_reject_nan_times(bound):
    params = ModelParams(2, 4.0, 2.0)
    with pytest.raises(DomainError):
        bound(np.array([4.0, 6.0]), params)


def test_kl_chain_decays_subexponentially():
    # beyond t = 1 the optimized bound decays at least like e^{-t}
    params = ModelParams(4, 6.0, 2.0)
    x0 = np.array([1.0, 2.0, 3.0, 4.0])
    ts = np.linspace(1.0, 6.0, 11)
    vals = np.array([kl_upper_bound_chain(x0, 0.0, t, params) for t in ts])
    ratios = vals[1:] / vals[:-1]
    step = ts[1] - ts[0]
    assert np.all(ratios <= math.exp(-step) * 1.0000001)


def test_tv_window_on_synthetic_rows():
    rows = [
        ProfileRow(8, 0.0, "TV", 1.0, 0.0, 0.9, 1.0, 1.0, 2.0),
        ProfileRow(8, 1.0, "TV", 0.8, 0.0, 0.7, 1.0, 1.0, 2.0),
        ProfileRow(8, 2.0, "TV", 0.4, 0.0, 0.3, 0.9, 1.0, 2.0),
        ProfileRow(8, 3.0, "TV", 0.05, 0.0, 0.0, 0.5, 1.0, 2.0),
    ]
    prof = CutoffProfile(rows=rows, predictions={}, critical_times={8: 2.0}, route="matrix")
    win = prof.tv_window(8)
    # crosses 0.9 between 0 and 1, linearly, as the TV at t = 0 is exactly 1
    assert win["t_hi"] == pytest.approx(0.5)

    # crosses 0.1 between 2 and 3, linearly in log ndtri((1 + v) / 2)
    def g(v):
        return math.log(ndtri((1.0 + v) / 2.0))

    assert win["t_lo"] == pytest.approx(2.0 + (g(0.1) - g(0.4)) / (g(0.05) - g(0.4)))
    assert win["width"] == pytest.approx(win["t_lo"] - win["t_hi"])
    assert win["ratio"] == pytest.approx(win["width"] / 2.0)
    with pytest.raises(DomainError):
        prof.tv_window(9)


def test_profile_matrix_route_small():
    config = {
        "mode": "cutoff-profile",
        "n": 8,
        "m": 8,
        "times": [0.5, 0.9, 1.3],
        "replicas": 600,
        "distances": ["TV", "KL"],
        "seed": 7,
    }
    prof = run_cutoff_profile(config)
    assert prof.route == "matrix"
    assert set(prof.critical_times) == {8}
    tv_rows = prof.rows_for(n=8, kind="TV")
    kl_rows = prof.rows_for(n=8, kind="KL")
    assert len(tv_rows) == 3 and len(kl_rows) == 3
    for r in tv_rows + kl_rows:
        assert r.bound_lower <= r.bound_upper + 1e-12
        assert r.stderr >= 0
        assert np.isfinite(r.value)
    # witness values decrease along the ladder of times
    assert tv_rows[0].value > tv_rows[-1].value
    # sandwich within 3 stderr on every row
    for r in tv_rows:
        assert r.bound_lower - 3 * r.stderr <= r.value <= r.bound_upper + 3 * r.stderr
    assert prof.predictions[8]["TV"].c_upper == pytest.approx(prof.critical_times[8])


def test_profile_sde_route_small():
    config = {
        "mode": "cutoff-profile",
        "n": 3,
        "alpha": 4.0,
        "beta": 1.0,
        "times": [0.8, 1.2],
        "replicas": 300,
        "distances": ["TV"],
        "seed": 1,
    }
    prof = run_cutoff_profile(config)
    assert prof.route == "sde"
    assert len(prof.rows_for(n=3, kind="TV")) == 2


@pytest.mark.parametrize("kind", ["TV", "KL", "L2"])
@pytest.mark.parametrize(
    "route",
    [{"n": 8}, {"n": 4, "alpha": 6.0, "beta": 2.0, "x0_preset": "ramp"}],
    ids=["matrix", "euler"],
)
def test_profile_runs_at_time_zero(route, kind):
    config = dict(route, replicas=300, distances=[kind], seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first, later = run_cutoff_profile(dict(config, times=[0.0, 0.5])).rows
    assert first.t == 0.0 and first.kind == kind
    # the law at t = 0 is the point mass at the start
    assert first.bound_upper == {"TV": 1.0, "KL": math.inf, "L2": math.inf}[kind]
    if kind == "L2":
        # the value and the lower bound are one number computed two ways
        assert first.value == pytest.approx(first.bound_lower, rel=1e-12)
    else:
        assert first.bound_lower <= first.value
    # a grid time 0 draws nothing, so the later row is the row of a grid without it
    (alone,) = run_cutoff_profile(dict(config, times=[0.5])).rows
    assert later == alone


@pytest.mark.parametrize("route", [{"n": 8}, {"n": 3, "alpha": 4.0}], ids=["matrix", "euler"])
def test_profile_reads_array_times_and_distances(route):
    config = dict(route, replicas=200, seed=5)
    want = run_cutoff_profile(dict(config, times=[0.6, 1.0, 1.4], distances=["TV", "L2"]))
    got = run_cutoff_profile(dict(config, times=np.array([0.6, 1.0, 1.4]),
                                  distances=np.array(["TV", "L2"])))
    assert len(got.rows) == 6
    assert [r.__dict__ for r in got.rows] == [r.__dict__ for r in want.rows]
    assert np.array([r.value for r in got.rows]).tobytes() == (
        np.array([r.value for r in want.rows]).tobytes()
    )
    # empty arrays take the defaults, as empty lists do
    empty = run_cutoff_profile(dict(config, times=np.array([]), distances=np.array([])))
    assert empty.rows == run_cutoff_profile(dict(config, times=[], distances=[])).rows


def test_profile_empty_ladder_is_the_default_ladder():
    # serialize_config skips an empty n, so it must run what an omitted n runs
    config = dict(replicas=200, seed=5, times=[1.0])
    want = run_cutoff_profile(config).rows
    assert [r.n for r in want] == [16, 16, 64, 64, 128, 128]
    for empty in ([], (), np.array([], dtype=int)):
        assert run_cutoff_profile(dict(config, n=empty)).rows == want


def test_profile_rejects_wasserstein(monkeypatch):
    from dyson_laguerre import cutoff, equilibrium

    # W is refused before any start, prediction or draw
    def fail(*args, **kwargs):
        raise AssertionError("the profile drew or predicted before refusing W")

    for module, name in ((cutoff, "_cutoff_bracket"), (cutoff, "RngStream"),
                         (equilibrium, "build_x0")):
        monkeypatch.setattr(module, name, fail)
    config = {
        "mode": "cutoff-profile",
        "n": 8,
        "times": [1.0],
        "replicas": 200,
        "distances": ["TV", "W"],
        "seed": 0,
    }
    with pytest.raises(UnsupportedRegime):
        run_cutoff_profile(config)


# Frozen reference: the zero-start TV as the acceptance tests computed it.
def _tv_oracle_exact(n_big, t):
    c = -math.expm1(-t)
    xs = n_big * c * math.log(c) / (c - 1.0)
    return abs(gammainc(n_big, xs) - gammainc(n_big, xs / c))


def test_zero_start_tv_matches_frozen_oracle_on_the_acceptance_ladder():
    for n in (16, 64, 128):
        for mult in (0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6):
            t = mult * math.log(n)
            assert zero_start_tv(n * n / 2.0, t) == pytest.approx(
                _tv_oracle_exact(n * n / 2.0, t), rel=0, abs=1e-12)


@pytest.mark.parametrize("n_big", [2.5, 12.0, 96.0])
@pytest.mark.parametrize("t", [0.2, 0.7, 1.5, 3.0])
def test_zero_start_closed_forms_match_quadrature(n_big, t):
    # c * Gamma(N, 1) against Gamma(N, 1), c = 1 - e^{-t}
    c = -math.expm1(-t)
    p, q = stats.gamma(n_big, scale=c), stats.gamma(n_big)
    top = n_big + 40.0 * math.sqrt(n_big) + 40.0

    def quad(f):
        return integrate.quad(f, 0.0, top, points=[n_big * c, n_big], limit=500,
                              epsabs=1e-14, epsrel=1e-12)[0]

    kl = quad(lambda z: p.pdf(z) * (p.logpdf(z) - q.logpdf(z)) if p.pdf(z) > 0 else 0.0)
    chi2 = quad(lambda z: math.exp(2.0 * p.logpdf(z) - q.logpdf(z))) - 1.0
    tv = 0.5 * quad(lambda z: abs(p.pdf(z) - q.pdf(z)))
    assert zero_start_kl(n_big, t) == pytest.approx(kl, rel=1e-9)
    assert zero_start_chi2(n_big, t) == pytest.approx(chi2, rel=1e-9)
    assert zero_start_tv(n_big, t) == pytest.approx(tv, rel=0, abs=1e-10)


def test_zero_start_chi2_is_the_squared_matrix_l2_from_zero():
    for n in (16, 64):
        mp = MatrixParams.bru(n, n)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            l2 = ou_closed_form_distances(mp, t, 0.0)["L2"].value
            assert zero_start_chi2(n * n / 2.0, t) == pytest.approx(l2 * l2, rel=1e-12)


def test_zero_start_closed_forms_at_the_ends():
    # t = 0 is the point mass at 0
    assert (zero_start_tv(8.0, 0.0), zero_start_kl(8.0, 0.0), zero_start_chi2(8.0, 0.0)) == (
        1.0, math.inf, math.inf)
    assert (zero_start_tv(8.0, 800.0), zero_start_kl(8.0, 800.0), zero_start_chi2(8.0, 800.0)) == (
        0.0, 0.0, 0.0)
    # below t = 1.1e-16, e^{-t} rounds to 1: the law is still nearly the point mass
    for t in (1e-17, 1e-300):
        assert zero_start_tv(8.0, t) == 1.0
        assert zero_start_kl(8.0, t) == pytest.approx(8.0 * (-1.0 - math.log(t)), rel=1e-15)
    assert zero_start_chi2(8.0, 1e-17) == pytest.approx(2e-17**-8, rel=1e-12)
    assert zero_start_chi2(8.0, 1e-300) == math.inf
    # sum_{k >= 2} u^k / k at u = e^{-t} = 0.01, where N (c - 1 - log c) cancels
    assert zero_start_kl(3.0, math.log(100.0)) == pytest.approx(
        3.0 * sum(0.01**k / k for k in range(2, 12)), rel=1e-14)
    assert zero_start_chi2(1e6, 0.01) == math.inf
    for args in [(0.0, 1.0), (-2.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (4.0, -0.1),
                 (4.0, math.nan)]:
        for fn in (zero_start_tv, zero_start_kl, zero_start_chi2):
            with pytest.raises(DomainError):
                fn(*args)


@pytest.mark.parametrize("preset", ["zero", "ramp"])
@pytest.mark.parametrize("model", [{"alpha": 6.0, "beta": 2.0}, {"m": 8}], ids=["euler", "matrix"])
def test_profile_rows_do_not_depend_on_replicas_or_seed(model, preset):
    # nothing is drawn but an equilibrium-draw start, so replicas and seed
    # leave these presets' rows as they are; every row is exact
    config = dict(model, n=[3, 5], x0_preset=preset, times=[0.0, 0.5, 1.0],
                  distances=["TV", "KL", "L2"])
    prof = run_cutoff_profile(dict(config, replicas=1, seed=0))
    rows = prof.rows
    assert "replicas" not in prof.meta
    for replicas, seed in ((4000, 0), (1, 1), (4000, 1)):
        assert run_cutoff_profile(dict(config, replicas=replicas, seed=seed)).rows == rows
    assert len(rows) == 18
    for r in rows:
        assert r.stderr == 0.0
        assert r.bound_lower <= r.value <= r.bound_upper, r
        if r.kind == "L2":
            assert r.value == r.bound_lower


def test_profile_refuses_negative_and_non_finite_times(monkeypatch):
    from dyson_laguerre import cutoff

    monkeypatch.setattr(cutoff, "RngStream", None)  # refused before any rung starts
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            run_cutoff_profile({"n": 4, "times": [1.0, bad], "distances": ["L2"]})


@pytest.mark.parametrize("model", [{"alpha": 6.0, "beta": 2.0}, {"m": 8}])
def test_profile_reads_phi_once_per_rung(monkeypatch, model):
    # each rung evaluates phi at its start once; its brackets and lower
    # bounds are those of the public (x0, t, params) functions, and on the
    # Euler route so are its KL chain upper bounds
    from dyson_laguerre import cutoff
    from dyson_laguerre.simulate import route_params

    live, seen = cutoff.observable_phi, []
    monkeypatch.setattr(cutoff, "observable_phi",
                        lambda x0, params: seen.append((x0, params)) or live(x0, params))
    ladder = [3, 5]
    prof = run_cutoff_profile(dict(model, n=ladder, x0_preset="ramp", times=[0.0, 0.5, 1.0],
                                   replicas=200, distances=["TV", "KL", "L2"], seed=3))
    rungs = list(seen)
    assert [params.n for _, params in rungs] == ladder
    for (x0, params), n in zip(rungs, ladder):
        _, mp = route_params(n, model.get("alpha"), model.get("beta"), model.get("m"))
        for r in prof.rows_for(n=n):
            pred = cutoff_predict(r.kind, x0, params, matrix=mp)
            assert (r.c_pred_lower, r.c_pred_upper) == (pred.c_lower, pred.c_upper)
            if r.kind == "TV":
                assert r.bound_lower == tv_lower_bound_formula(x0, r.t, params)
            elif r.kind == "L2":
                assert r.bound_lower == math.sqrt(lb_l2_witness(x0, r.t, params))
            elif mp is None and r.t > 0:
                assert r.bound_upper == kl_upper_bound_chain(x0, 0.0, r.t, params)


@pytest.mark.parametrize("n,alpha,beta", [(6, 8.0, 1.0), (4, 6.0, 2.0)])
def test_euler_profile_from_zero_lies_in_its_bounds(n, alpha, beta):
    prof = run_cutoff_profile({"n": n, "alpha": alpha, "beta": beta, "x0_preset": "zero",
                               "replicas": 4000, "distances": ["TV", "KL", "L2"], "seed": 1})
    assert prof.route == "sde" and prof.meta["fallbacks"] == []
    assert len(prof.rows) == 39
    for r in prof.rows:
        assert r.bound_lower - 3.0 * r.stderr <= r.value <= r.bound_upper + 3.0 * r.stderr, r
        if r.kind == "TV":
            assert abs(r.value - zero_start_tv(n * alpha, r.t)) <= r.stderr + 0.01, r


# The exact law of phi_t: (c/2) times a noncentral chi-square with 2N degrees
# of freedom and noncentrality 2 lam, c = 1 - e^{-t}, lam = phi_0 e^{-t} / c.
def _phi_law_scipy(n_big, phi0, t):
    c = -math.expm1(-t)
    return stats.ncx2(2.0 * n_big, 2.0 * phi0 * math.exp(-t) / c, scale=c / 2.0)


def _law_by_quadrature(n_big, phi0, t):
    """TV and KL of the law of phi_t against Gamma(N, 1) by scipy's ncx2
    density and adaptive quadrature, split at the densities' crossings.
    ncx2.logpdf is -inf at thousands of degrees of freedom, so logs are
    taken of the density."""
    p, q = _phi_law_scipy(n_big, phi0, t), stats.gamma(n_big)
    lo = min(p.ppf(1e-15), q.ppf(1e-15))
    hi = max(p.isf(1e-15), q.isf(1e-15))
    grid = np.linspace(lo, hi, 4001)
    diff = p.pdf(grid) - q.pdf(grid)
    cross = [optimize.brentq(lambda z: p.pdf(z) - q.pdf(z), a, b)
             for a, b, da, db in zip(grid, grid[1:], diff, diff[1:]) if da * db < 0]
    edges = [lo, *cross, hi]

    def quad(f):
        return sum(integrate.quad(f, a, b, limit=400, epsabs=1e-15, epsrel=1e-13)[0]
                   for a, b in zip(edges, edges[1:]))

    def kl_density(z):
        pz = p.pdf(z)
        return pz * (math.log(pz) - q.logpdf(z)) if pz > 0 else 0.0

    return 0.5 * quad(lambda z: abs(p.pdf(z) - q.pdf(z))), quad(kl_density)


def _start(n, phi0):
    return np.full(n, phi0 / n)


@pytest.mark.parametrize(
    "params, phi0, t",
    [
        (ModelParams(4, 12.0, 1.0), 10.0, 0.2),       # N = 48: Debye's expansion
        (ModelParams(3, 5.0, 2.0), 6.0, 0.7),         # N = 15: scipy's ive
        (ModelParams(1, 2.5, 0.0), 10.0, 1.5),        # N = 2.5
        (MatrixParams.bru(1, 1).induced_model(), 3.0, 0.5),       # N = 1/2
        (MatrixParams.bru(128, 128).induced_model(), 9000.0, 3.0),   # N = 8192
        (MatrixParams.bru(128, 128).induced_model(), 16384.0, 5.0),
    ],
    ids=["N48", "N15", "N2.5", "N0.5", "N8192-near", "N8192-far"],
)
def test_phi_law_matches_quadrature(params, phi0, t):
    got = phi_law_distances(_start(params.n, phi0), t, params)
    tv, kl = _law_by_quadrature(params.phi_mean, phi0, t)
    assert got["TV"] == pytest.approx(tv, rel=0, abs=1e-8)
    assert got["KL"] == pytest.approx(kl, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("n_big", [0.1, 0.5, 2.5, 48.0, 8192.0, 1e7])
def test_phi_law_from_zero_is_the_zero_start_closed_forms(n_big):
    params = ModelParams(1, n_big, 0.0)
    for t in (0.05, 0.4, 1.0, 3.0, 9.0, 30.0):
        got = phi_law_distances(np.zeros(1), t, params)
        assert got["TV"] == pytest.approx(zero_start_tv(n_big, t), rel=0, abs=1e-12)
        assert got["KL"] == pytest.approx(zero_start_kl(n_big, t), rel=1e-12, abs=1e-12)
    # the law at t = 0 is the point mass at phi(x0)
    for x0 in (np.zeros(1), np.ones(1)):
        assert phi_law_distances(x0, 0.0, params) == {"TV": 1.0, "KL": math.inf}


@pytest.mark.parametrize("phi0", [1.0, 6.0, 40.0])
def test_phi_law_kl_is_the_mean_log_ratio_of_exact_draws(phi0):
    # KL = E_p[log p - log q] over exact draws of phi_t, N = 6
    params, draws = ModelParams(2, 3.0, 1.0), 200_000
    rng = np.random.default_rng(int(phi0))
    q = stats.gamma(6.0)
    for t in (0.2, 0.8, 2.0):
        z = cir_exact_transition(np.full(draws, phi0), t, 6.0, rng)
        log_ratio = _phi_law_scipy(6.0, phi0, t).logpdf(z) - q.logpdf(z)
        se = log_ratio.std() / math.sqrt(draws)
        kl = phi_law_distances(_start(2, phi0), t, params)["KL"]
        assert abs(log_ratio.mean() - kl) <= 4.0 * se, (t, log_ratio.mean(), kl, se)


def test_phi_law_refuses_what_it_cannot_evaluate(monkeypatch):
    from dyson_laguerre import cutoff

    def fail(*args):
        raise AssertionError("the law was evaluated before its inputs were checked")

    monkeypatch.setattr(cutoff, "_log_0f1", fail)
    small = ModelParams(1, 0.4, 0.0)             # N = 0.4 < 1/2
    large = ModelParams(2, 6e7, 0.0)             # N = 1.2e8 > 1e8
    with pytest.raises(DomainError, match="N = 0.4"):
        phi_law_distances(np.ones(1), 1.0, small)
    with pytest.raises(DomainError, match="N = 1.2e"):
        phi_law_distances(np.ones(2), 1.0, large)
    # phi(x0) e^-t / (1 - e^-t) = 2e8 > 1e8
    with pytest.raises(DomainError):
        phi_law_distances(np.ones(1), 5e-9, ModelParams(1, 3.0, 0.0))
    with pytest.raises(DomainError):
        phi_law_distances(np.ones(1), -1.0, ModelParams(1, 3.0, 0.0))
    # from 0 the closed forms take every shape
    assert phi_law_distances(np.zeros(1), 1.0, small)["KL"] == zero_start_kl(0.4, 1.0)
    # one bad entry refuses the whole batch, before any law is evaluated
    with pytest.raises(DomainError):
        phi_law_distances(np.ones(1), np.array([1.0, 5e-9, 2.0]), ModelParams(1, 3.0, 0.0))
    with pytest.raises(DomainError):
        phi_law_distances(np.ones(1), np.array([1.0, -1.0]), ModelParams(1, 3.0, 0.0))
    with pytest.raises(DomainError, match="N = 0.4"):
        cutoff._phi_law(np.array([48.0, 0.4]), np.ones(2), 1.0)


@pytest.mark.parametrize("params, phi0", [
    (ModelParams(4, 12.0, 1.0), 10.0),      # N = 48: Debye's expansion
    (ModelParams(3, 5.0, 2.0), 6.0),        # N = 15: the series and ive
    (MatrixParams.bru(1, 1).induced_model(), 3.0),   # N = 1/2
], ids=["N48", "N15", "N0.5"])
def test_phi_law_of_an_array_of_times_is_each_time_alone(params, phi0):
    # an array of times gives arrays of its shape, each entry with the bits
    # of a call at that time alone; t = 0 and t where e^-t underflows included
    x0 = _start(params.n, phi0)
    times = np.array([[0.0, 1e-3, 0.05, 0.3], [1.0, 4.0, 40.0, 800.0]])
    got = phi_law_distances(x0, times, params)
    assert got["TV"].shape == got["KL"].shape == times.shape
    for idx, t in np.ndenumerate(times):
        alone = phi_law_distances(x0, float(t), params)
        assert (got["TV"][idx], got["KL"][idx]) == (alone["TV"], alone["KL"]), t
    assert phi_law_distances(x0, times[1], params)["KL"].tolist() == got["KL"][1].tolist()


def test_phi_law_batch_mixes_every_branch():
    # one batch: shapes below order 30 (the series below a = 1, ive above),
    # Debye's expansion, a zero start, t = 0, and laws whose densities still
    # differ in sign at the outer nodes (N = 200, phi0 = 10, t = 1 has p > q
    # at the first node; N = 0.5, phi0 = 100, t = 1e-3 at both)
    from dyson_laguerre import cutoff

    entries = [(15.0, 6.0, 0.7), (2.5, 10.0, 1.5), (48.0, 10.0, 0.2), (200.0, 10.0, 1.0),
               (0.5, 100.0, 1e-3), (48.0, 0.0, 0.5), (15.0, 6.0, 0.0), (8192.0, 9000.0, 3.0)]
    tv, kl = cutoff._phi_law(*(np.array(v) for v in zip(*entries)))
    for k, entry in enumerate(entries):
        alone = cutoff._phi_law(*entry)
        assert (tv[k], kl[k]) == (alone[0][()], alone[1][()]), entry
    assert (tv[5], kl[5]) == (zero_start_tv(48.0, 0.5), zero_start_kl(48.0, 0.5))
    assert (tv[6], kl[6]) == (1.0, math.inf)
    want_tv, want_kl = _law_by_quadrature(200.0, 10.0, 1.0)
    assert tv[3] == pytest.approx(want_tv, rel=0, abs=1e-8)
    assert kl[3] == pytest.approx(want_kl, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("model", [{"alpha": 12.0, "beta": 1.0}, {"m": 8}],
                         ids=["euler", "matrix"])
def test_profile_rows_do_not_depend_on_the_other_rungs_or_times(model):
    # the law of phi runs once over every (rung, time) of a profile; a row
    # has the bits it has in a profile of its rung and time alone
    config = dict(model, x0_preset="ramp", distances=["TV", "KL", "L2"])
    rows = run_cutoff_profile(dict(config, n=[4, 8], times=[0.3, 0.8, 1.4])).rows
    for n in (4, 8):
        for t in (0.3, 0.8, 1.4):
            alone = run_cutoff_profile(dict(config, n=n, times=[t])).rows
            assert alone == [r for r in rows if r.n == n and r.t == alone[0].t]


def test_profile_evaluates_the_law_in_one_pass(monkeypatch):
    # log 0F1 runs a fixed number of times per profile, however many rungs
    # and grid times it has: once for the KL rule, once per Newton step
    from dyson_laguerre import cutoff

    live, calls = cutoff._log_0f1, []
    monkeypatch.setattr(cutoff, "_log_0f1", lambda *args: calls.append(1) or live(*args))
    counts = []
    for ladder, times in (([4], [0.5, 1.0, 1.5]), ([4], np.linspace(0.1, 3.0, 30)),
                          ([3, 4, 6], [0.5, 1.0, 1.5]), ([3, 4, 6], np.linspace(0.1, 3.0, 30))):
        calls.clear()
        run_cutoff_profile({"n": ladder, "alpha": 12.0, "beta": 1.0, "x0_preset": "ramp",
                            "times": times, "distances": ["TV", "KL"]})
        counts.append(len(calls))
    assert counts[0] > 0 and counts == [counts[0]] * 4, counts


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.5, 15.0, 30.5, 31.0, 48.0, 2048.0])
def test_log_0f1_matches_mpmath(shape):
    # every branch: the series below a = 1 and ive below order 30, Debye's
    # expansion from order 30, from a = 0 to 2 sqrt(a) four times the order.
    # An absolute error in log 0F1 is a relative error of the density.
    import mpmath

    a = np.array([0.0, 1e-12, 0.3, 1.0, 1.0001, 7.0, shape, shape**2 / 4, shape**2,
                  4.0 * shape**2 + 100.0])
    got = _log_0f1(np.array([shape]), a, [len(a)])
    with mpmath.workdps(30):
        want = [float(mpmath.log(mpmath.hyp0f1(shape, mpmath.mpf(float(v)), maxterms=10**6)))
                for v in a]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    tiny = _log_0f1(np.array([shape]), np.array([1e-300]), [1])[0]
    assert tiny == pytest.approx(1e-300 / shape, rel=1e-12)
