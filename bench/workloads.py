"""The benchmark's workloads: fixed CLI configs, op seeds and output checks.

A workload is a list of config steps that `dyson_laguerre.cli.run` executes
in order; one pass over the steps is one op.  Each op gets its own seed,
derived from the workload seed, and its artifacts are checked afterwards
with a statistical tolerance, so a change that only reshuffles the random
streams still passes.  The sizes are chosen so that one op takes under a
second on a 2-core machine; `op_seconds` is that typical time, from which a
run's fixed number of ops is sized (see run.py).
"""

from dataclasses import dataclass
import csv
import json
import math
import os

import numpy as np
from scipy.special import gammainc


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: tuple          # one dict of config keys per cli.run call
    tiny: tuple           # per-step overrides for the smoke run
    check: object         # check(configs) -> list of problems, empty when fine
    op_seconds: float     # typical op time on 2 cores; sizes a run's fixed op count
    exercises: tuple = ()
    bypasses: tuple = ()

    def configs(self, tiny=False):
        """The config text of every step, with the smoke overrides if asked."""
        out = []
        for step, small in zip(self.steps, self.tiny):
            keys = dict(step, **small) if tiny else step
            out.append("".join(f"{k} = {v}\n" for k, v in keys.items()))
        return out


def op_seed(seed, index):
    """Seed of op `index` in a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed % 2**64, index]).generate_state(1)[0])


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_sde_profile(configs):
    """Every profile row lies in [lower - 3 se, upper + 3 se] (criterion 10)."""
    (cfg,) = configs
    with open(os.path.join(cfg["out_dir"], "profile.json")) as fh:
        rows = json.load(fh)["rows"]
    ladder = cfg["n"] if isinstance(cfg["n"], list) else [cfg["n"]]
    want = len(ladder) * len(cfg["times"]) * len(cfg["distances"])
    problems = [] if len(rows) == want else [f"{len(rows)} profile rows, expected {want}"]
    for r in rows:
        lo = r["bound_lower"] - 3.0 * r["stderr"]
        up = r["bound_upper"] + 3.0 * r["stderr"]
        if not lo <= r["value"] <= up:
            problems.append(f"n={r['n']} t={r['t']:.4g} {r['kind']}: {r['value']:.4g} "
                            f"outside [{lo:.4g}, {up:.4g}]")
    return problems


def _exact_tv_scaled_gamma(n_big, t):
    """Exact TV between (1 - e^-t) Gamma(N, 1) and Gamma(N, 1): the law of
    phi_t from the zero start against its equilibrium."""
    c = -math.expm1(-t)
    xs = n_big * c * math.log(c) / (c - 1.0)
    return abs(gammainc(n_big, xs) - gammainc(n_big, xs / c))


def _check_matrix_route(configs):
    """Simulated E phi_t within 4 se of N(1 - e^-t), N = nm/2, from the zero
    start; every TV row within se + 0.01 of the exact projected TV."""
    sim, prof = configs
    problems = []
    rows = _read_csv(os.path.join(sim["out_dir"], "paths.csv"))
    n, m = sim["n"], sim["m"]
    n_big = n * m / 2.0
    phi = np.zeros((len(sim["times"]), sim["replicas"]))
    index = {t: k for k, t in enumerate(sim["times"])}
    for r in rows:
        phi[index[float(r["time"])], int(r["replica"])] += float(r["value"])
    if len(rows) != phi.size * n:
        problems.append(f"{len(rows)} path rows, expected {phi.size * n}")
    for t, sample in zip(sim["times"], phi):
        want = n_big * -math.expm1(-t)
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        if abs(sample.mean() - want) > 4.0 * se:
            problems.append(f"simulate t={t}: mean phi {sample.mean():.4g}, "
                            f"exact {want:.4g}, se {se:.3g}")
    tv_rows = [r for r in _read_csv(os.path.join(prof["out_dir"], "profile.csv"))
               if r["kind"] == "TV"]
    ladder = prof["n"] if isinstance(prof["n"], list) else [prof["n"]]
    if len(tv_rows) != len(ladder) * len(prof["times"]):
        problems.append(f"{len(tv_rows)} TV rows, expected {len(ladder) * len(prof['times'])}")
    for r in tv_rows:
        rung, t = int(r["n"]), float(r["t"])
        exact = _exact_tv_scaled_gamma(rung * rung / 2.0, t)
        value, se = float(r["value"]), float(r["stderr"])
        if abs(value - exact) > se + 0.01:
            problems.append(f"profile n={rung} t={t:.4g}: TV {value:.4g}, exact {exact:.4g}")
    return problems


def _check_wg_decay(configs):
    """value <= e^{-t/2} w0 + 3 (floor + se) at every grid time (criterion 6)."""
    (cfg,) = configs
    rows = _read_csv(os.path.join(cfg["out_dir"], "wg_decay.csv"))
    problems = [] if len(rows) == len(cfg["times"]) else [f"{len(rows)} decay rows"]
    for r in rows:
        bound = float(r["envelope"]) + 3.0 * (float(r["floor"]) + float(r["stderr"]))
        if not float(r["value"]) <= bound:
            problems.append(f"t={r['t']}: W {float(r['value']):.4g} above {bound:.4g}")
    return problems


def _check_mirror_couple(configs):
    """Mean intrinsic distance of the coupled legs <= e^{-t/2} d0 + 3 se
    (criterion 7); d0 is read from the t = 0 rows."""
    (cfg,) = configs
    n, reps, times = cfg["n"], cfg["replicas"], cfg["times"]
    index = {t: k for k, t in enumerate(times)}
    legs = np.full((2, len(times), reps, n), np.nan)
    for r in _read_csv(os.path.join(cfg["out_dir"], "coupled_paths.csv")):
        legs[int(r["leg"] == "y"), index[float(r["time"])], int(r["replica"]),
             int(r["coord_index"])] = float(r["value"])
    if np.isnan(legs).any():
        return ["coupled_paths.csv does not cover every (leg, time, replica, coordinate)"]
    dist = 2.0 * np.sqrt(np.sum((np.sqrt(legs[0]) - np.sqrt(legs[1])) ** 2, axis=2))
    d0 = dist[0, 0]
    problems = []
    for t, d in zip(times[1:], dist[1:]):
        bound = math.exp(-t / 2.0) * d0 + 3.0 * d.std(ddof=1) / math.sqrt(reps)
        if not d.mean() <= bound:
            problems.append(f"t={t}: mean distance {d.mean():.4g} above {bound:.4g}")
    return problems


def _check_cd(configs):
    (cfg,) = configs
    with open(os.path.join(cfg["out_dir"], "cd_report.json")) as fh:
        report = json.load(fh)
    return [f"certificate violated, min_gap {report['min_gap']}"] if report["violated"] else []


_PROFILE_SDE = {
    "mode": "cutoff-profile", "n": "4, 8", "alpha": "12", "beta": "1",
    "x0_preset": "ramp", "times": "0.05, 0.1, 0.15", "replicas": "500",
    "distances": "TV, KL", "format": "json",
}
_SIMULATE_MATRIX = {
    "mode": "simulate", "n": "16", "m": "16", "times": "0.5, 1.0, 2.0", "replicas": "200",
}
_PROFILE_MATRIX = {
    "mode": "cutoff-profile", "n": "16, 64, 128", "times": "0.5, 0.7, 1.0, 1.3",
    "replicas": "1000", "distances": "TV, KL, L2",
}
_DISTANCE = {
    "mode": "distance", "n": "4", "alpha": "4", "beta": "1", "x0_preset": "ramp",
    "times": "0.25, 0.5, 0.75, 1.0, 1.25, 1.5", "replicas": "160",
}
_COUPLE = {
    "mode": "couple", "n": "4", "alpha": "4", "beta": "1", "x0_preset": "ramp",
    "times": "0, 0.25, 0.5, 0.75, 1.0", "replicas": "100",
}
_CHECK_CD = {"mode": "check-cd", "n": "6", "alpha": "6", "beta": "1", "replicas": "300"}



def _in_turn(*parts):
    """Check of a workload whose steps are, in order, the steps of several
    checks; `parts` holds (number of steps, check) pairs."""
    def check(configs):
        problems, first = [], 0
        for count, part in parts:
            problems += part(configs[first:first + count])
            first += count
        return problems
    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sde_profile",
            why="Euler integrator and drift kernel do ~95% of the work; n=4 is per-call "
                "overhead bound, n=8 pairwise bound; the ramp start hits step halving, "
                "whose NumericError counts as failed",
            steps=(_PROFILE_SDE,),
            tiny=({"times": "0.02", "replicas": "200"},),
            check=_check_sde_profile,
            op_seconds=0.7,
            exercises=("kernels.edl_drift_batch", "simulate.dl_paths_batch",
                       "simulate._propose_batch", "transport.kl_projected_estimate",
                       "transport.tv_threshold_witness", "cutoff.run_cutoff_profile"),
            bypasses=("simulate.matrix_dl_path", "transport.linear_sum_assignment",
                      "coupling._advance_pairs", "geometry.gamma2_explicit"),
        ),
        Workload(
            name="matrix_geometry",
            why="Matrix simulate and profile over n=16,64,128, then the curvature "
                "certificate: eigensolves, kNN entropy, gaussian_tv, CSV writing, Gamma-2 "
                "code; bypasses the Euler integrator and drift kernel",
            steps=(_SIMULATE_MATRIX, _PROFILE_MATRIX, _CHECK_CD),
            tiny=({"replicas": "50"}, {"n": "16", "times": "0.7", "replicas": "200"},
                  {"replicas": "20"}),
            check=_in_turn((2, _check_matrix_route), (1, _check_cd)),
            op_seconds=0.85,
            exercises=("simulate.matrix_dl_path", "simulate.spectral_projection",
                       "simulate.rect_ou_transition", "simulate.cir_exact_transition",
                       "transport.kl_projected_estimate", "transport.gaussian_tv",
                       "cli._csv_text", "geometry.cd_certificate", "geometry.gamma2_explicit",
                       "geometry.carre_du_champ", "geometry.random_test_function"),
            bypasses=("kernels.edl_drift_batch", "simulate.dl_paths_batch",
                      "simulate._propose_batch", "transport.linear_sum_assignment",
                      "coupling._advance_pairs"),
        ),
        Workload(
            name="transport_coupling",
            why="W2 decay then mirror-coupled pairs: linear_sum_assignment, the (r, r, n) "
                "cost tensor, and _advance_pairs, the other user of the Euler proposal, "
                "with two kernel calls per step",
            steps=(_DISTANCE, _COUPLE),
            tiny=({"times": "0.25", "replicas": "100"}, {"times": "0, 0.05", "replicas": "20"}),
            check=_in_turn((1, _check_wg_decay), (1, _check_mirror_couple)),
            op_seconds=1.0,
            exercises=("transport.linear_sum_assignment", "transport._intrinsic_cost",
                       "transport.wasserstein_intrinsic", "equilibrium.sample_equilibrium_batch",
                       "coupling.wg_decay_estimate", "coupling._w_with_bootstrap",
                       "simulate.dl_paths_batch", "kernels.edl_drift_batch",
                       "coupling.run_coupled_batch", "coupling._advance_pairs",
                       "coupling._mirror_second_noise", "simulate._propose_batch",
                       "cli._csv_text", "cli._atomic_write"),
            bypasses=("simulate.matrix_dl_path", "geometry.gamma2_explicit",
                      "transport.gaussian_tv"),
        ),
    )
}
