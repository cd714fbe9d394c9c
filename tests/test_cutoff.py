import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import gammainc

from dyson_laguerre import (
    DomainError,
    MatrixParams,
    ModelParams,
    RngStream,
    UnsupportedRegime,
    build_x0,
    cir_exact_transition,
    cutoff_predict,
    duhamel_variance,
    kl_upper_bound_chain,
    lb_l2_witness,
    lift_matrix_bounds,
    mixing_time_ou,
    observable_phi,
    ou_closed_form_distances,
    run_cutoff_profile,
    tv_lower_bound_formula,
    tv_threshold_witness,
    zero_start_chi2,
    zero_start_kl,
    zero_start_tv,
)
from dyson_laguerre.cutoff import CutoffProfile, ProfileRow


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
    assert win["t_hi"] == pytest.approx(0.5)  # crosses 0.9 between 0 and 1
    assert win["t_lo"] == pytest.approx(2.0 + 0.3 / 0.35)
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


def test_profile_rejects_wasserstein():
    config = {
        "mode": "cutoff-profile",
        "n": 8,
        "times": [1.0],
        "replicas": 200,
        "distances": ["W"],
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
    # sum_{k >= 2} u^k / k at u = e^{-t} = 0.01, where N (c - 1 - log c) cancels
    assert zero_start_kl(3.0, math.log(100.0)) == pytest.approx(
        3.0 * sum(0.01**k / k for k in range(2, 12)), rel=1e-14)
    assert zero_start_chi2(1e6, 0.01) == math.inf
    for args in [(0.0, 1.0), (-2.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (4.0, -0.1),
                 (4.0, math.nan)]:
        for fn in (zero_start_tv, zero_start_kl, zero_start_chi2):
            with pytest.raises(DomainError):
                fn(*args)


@pytest.mark.parametrize("preset", ["zero", "ramp", "equilibrium-draw"])
def test_euler_profile_draws_phi_from_its_exact_transition(monkeypatch, preset):
    from dyson_laguerre import cutoff

    live, drawn = cutoff.cir_exact_transition, []

    def capture(*args):
        drawn.append(live(*args))
        return drawn[-1]

    monkeypatch.setattr(cutoff, "cir_exact_transition", capture)
    ladder, alpha, beta, replicas, seed = [3, 5], 6.0, 2.0, 400, 11
    prof = run_cutoff_profile({"n": ladder, "alpha": alpha, "beta": beta, "x0_preset": preset,
                               "times": [0.5, 1.0], "replicas": replicas,
                               "distances": ["TV", "L2"], "seed": seed})
    assert prof.route == "sde"
    # a generator in the profile's state: the start preset, the reference
    # draw, then one exact transition per grid time
    want = []
    for n_idx, n in enumerate(ladder):
        params = ModelParams(n, alpha, beta)
        gen = RngStream(seed, 1000 + n_idx).generator()
        x0, _ = build_x0(preset, params, gen)
        n_big = n * alpha
        ref = gen.standard_gamma(n_big, size=replicas)
        start = np.full(replicas, observable_phi(x0, params).phi_raw)
        tv_rows, l2_rows = prof.rows_for(n=n, kind="TV"), prof.rows_for(n=n, kind="L2")
        for tv_row, l2_row in zip(tv_rows, l2_rows):
            phi = cir_exact_transition(start, tv_row.t, n_big, gen)
            want.append(phi)
            assert tv_row.value == tv_threshold_witness(phi, ref).value
            assert l2_row.value == abs(np.mean(phi) - n_big) / math.sqrt(n_big)
    assert len(drawn) == len(want) == 4
    for got, exact in zip(drawn, want):
        assert np.array_equal(got.view(np.int64), exact.view(np.int64))


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
