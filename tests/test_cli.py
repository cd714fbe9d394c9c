import csv
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest

from dyson_laguerre import (
    DomainError,
    DysonLaguerreError,
    MatrixParams,
    ModelParams,
    ParseError,
    SerializationError,
    UnsupportedRegime,
    ValidationError,
    parse_config,
    run,
    serialize_config,
)
from dyson_laguerre.cli import _report_text, config_digest, main, read_profile
from dyson_laguerre.cutoff import CutoffProfile, ProfileRow


GOOD = """\
# comment and blank lines are skipped

mode = cutoff-profile
n = 8
m = 8
times = 0.6, 1.0, 1.4
replicas = 400
distances = TV, KL
seed = 3
format = json
"""


def test_parse_and_serialize_roundtrip():
    config = parse_config(GOOD)
    assert config["mode"] == "cutoff-profile"
    assert config["n"] == 8
    assert config["times"] == [0.6, 1.0, 1.4]
    assert config["distances"] == ["TV", "KL"]
    assert config["seed"] == 3
    text = serialize_config(config)
    again = parse_config(text)
    assert again == config
    assert config_digest(again) == config_digest(config)


@pytest.mark.parametrize("form", [np.array, tuple])
def test_serialize_writes_sequences_as_comma_lists(form):
    # the list, tuple and array forms of a config share their text and digest
    config = parse_config(GOOD)
    other = dict(config, times=form(config["times"]), distances=form(config["distances"]))
    text = serialize_config(other)
    assert text == serialize_config(config)
    assert "times = 0.6, 1.0, 1.4\n" in text
    assert parse_config(text) == config
    assert config_digest(other) == config_digest(config)


@pytest.mark.parametrize("empty", [[], (), np.array([])], ids=["list", "tuple", "array"])
def test_serialize_skips_an_empty_sequence(empty):
    # the modes read an empty times or distances as omitted; so do the text
    # and the digest
    config = parse_config(GOOD)
    omitted = dict(config, times=None, distances=None)
    other = dict(config, times=empty, distances=empty)
    assert parse_config(serialize_config(other)) == omitted
    assert config_digest(other) == config_digest(omitted)


def test_parse_n_ladder():
    config = parse_config("mode = cutoff-profile\nn = 8, 16, 32\n")
    assert config["n"] == [8, 16, 32]


def test_parse_unknown_key():
    with pytest.raises(ParseError) as err:
        parse_config("mode = simulate\nwat = 3\n")
    assert "wat" in str(err.value)
    assert "line 2" in str(err.value)


def test_parse_duplicate_key():
    with pytest.raises(ParseError) as err:
        parse_config("n = 2\nn = 3\n")
    assert "duplicate" in str(err.value)


def test_parse_missing_equals():
    with pytest.raises(ParseError) as err:
        parse_config("mode simulate\n")
    assert "line 1" in str(err.value)


def test_parse_bad_number_reports_column():
    with pytest.raises(ParseError) as err:
        parse_config("replicas = soon\n")
    assert "column" in str(err.value)


def test_parse_empty_value():
    with pytest.raises(ParseError):
        parse_config("alpha =\n")


def test_parse_rejects_bad_regime():
    # delta = 2.0 - 1.5 = 0.5 <= 1 must fail at parse time
    with pytest.raises(ValidationError) as err:
        parse_config("mode = simulate\nn = 4\nalpha = 2.0\nbeta = 1.0\n")
    assert "delta" in str(err.value)


def test_parse_rejects_bad_mode_and_format():
    with pytest.raises(ParseError):
        parse_config("mode = frobnicate\n")
    with pytest.raises(ParseError):
        parse_config("format = yaml\n")


def _tiny_profile():
    rows = [
        ProfileRow(4, 0.5, "TV", 0.8, 0.01, 0.7, 0.95, 0.6, 1.4),
        ProfileRow(4, 1.0, "TV", 0.4, 0.02, 0.3, 0.6, 0.6, 1.4),
    ]
    from dyson_laguerre.cutoff import CutoffPrediction

    preds = {4: {"TV": CutoffPrediction("TV", 0.6, 1.4, {"lower": "dimensional-floor", "upper": "matrix-dimension"})}}
    return CutoffProfile(
        rows=rows, predictions=preds, critical_times={4: 1.4}, route="matrix",
        meta={"seed": 0},
    )


def test_report_text_csv_schema():
    reader = csv.reader(io.StringIO(_report_text(_tiny_profile(), "csv")))
    header = next(reader)
    body = list(reader)
    assert tuple(header) == CutoffProfile.COLUMNS
    assert len(body) == 2
    # repr round-trip: the value column parses back to the exact float
    assert float(body[0][3]) == 0.8


def test_report_text_empty_profile_is_header_only():
    prof = CutoffProfile(rows=[], predictions={}, critical_times={}, route="matrix")
    lines = _report_text(prof, "csv").strip().splitlines()
    assert len(lines) == 1
    assert lines[0].split(",")[0] == "n"


def test_report_text_json_roundtrip(tmp_path):
    prof = _tiny_profile()
    path = tmp_path / "profile.json"
    path.write_text(_report_text(prof, "json"))
    back = read_profile(path)
    assert back.route == prof.route
    assert back.critical_times == prof.critical_times
    assert len(back.rows) == len(prof.rows)
    assert back.rows[0].value == prof.rows[0].value
    assert back.predictions[4]["TV"].c_upper == 1.4


def test_report_text_unknown_format():
    with pytest.raises(SerializationError):
        _report_text(_tiny_profile(), "parquet")


def test_run_writes_manifest_and_is_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "elsewhere" / "b"
    base = {
        "mode": "cutoff-profile",
        "n": 8,
        "m": 8,
        "times": [0.6, 1.0],
        "replicas": 300,
        "distances": ["TV"],
        "seed": 11,
        "format": "csv",
    }
    ma = run(dict(base, out_dir=str(out_a)))
    mb = run(dict(base, out_dir=str(out_b)))
    assert (out_a / "manifest.json").exists()
    assert len(ma.outputs) == 1
    # identical seeds and configs give identical artifacts
    assert ma.outputs[0]["sha256"] == mb.outputs[0]["sha256"]
    # output paths are relative to out_dir, so they do not depend on where it sits
    assert ma.outputs == mb.outputs
    assert ma.outputs[0]["path"] == "profile.csv"
    payload = json.loads((out_a / "manifest.json").read_text())
    assert payload["mode"] == "cutoff-profile"
    assert payload["seed"] == 11
    # config digest covers out_dir (runs to different folders differ)
    assert ma.config_hash != mb.config_hash
    assert ma.config_hash == config_digest(dict(base, out_dir=str(out_a)))


def test_run_simulate_writes_paths(tmp_path):
    config = {
        "mode": "simulate",
        "n": 3,
        "alpha": 4.0,
        "beta": 1.0,
        "x0_preset": "ramp",
        "times": [0.1, 0.2],
        "replicas": 4,
        "seed": 0,
        "out_dir": str(tmp_path),
        "format": "csv",
    }
    manifest = run(config)
    path = tmp_path / manifest.outputs[0]["path"]
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["replica"] for r in rows} == {"0", "1", "2", "3"}
    assert len(rows) == 4 * 2 * 3  # replicas x times x coordinates


def test_run_requires_mode():
    with pytest.raises(ValidationError):
        run({"n": 4})


@pytest.mark.parametrize(
    "config",
    [{"mode": "ou-formulas", "n": 4, "alpha": 6.0}, {"mode": "distance", "n": 4, "alpha": 2.0},
     {"mode": "simulate", "n": 4, "m": 8, "beta": 2.0}, {"mode": "check-cd", "n": [4, 8]}],
    ids=["ou-formulas-alpha", "distance-uncertified", "matrix-beta", "check-cd-ladder"],
)
def test_config_error_leaves_no_out_dir(tmp_path, config):
    # out_dir is created only once the experiment has returned its artifacts
    with pytest.raises(DysonLaguerreError):
        run(dict(config, out_dir=str(tmp_path / "f3" / "deep")))
    assert os.listdir(tmp_path) == []


def test_run_cleans_partial_outputs(tmp_path, monkeypatch):
    # stage a failure after the first of two artifacts is on disk: the
    # couple experiment writes a csv then a summary json
    import dyson_laguerre.cli as cli_mod

    real_write = cli_mod._atomic_write
    calls = {"k": 0}

    def flaky(path, data):
        calls["k"] += 1
        if calls["k"] == 2:
            raise OSError("disk full")
        real_write(path, data)

    monkeypatch.setattr(cli_mod, "_atomic_write", flaky)
    config = {
        "mode": "couple",
        "n": 2,
        "alpha": 3.0,
        "beta": 1.0,
        "x0_preset": "ramp",
        "times": [0.2],
        "replicas": 3,
        "seed": 0,
        "out_dir": str(tmp_path / "x"),
        "format": "csv",
    }
    with pytest.raises(OSError):
        run(config)
    assert calls["k"] == 2  # the csv landed before the failure
    leftover = [p for p in (tmp_path / "x").iterdir()]
    assert leftover == []


_SMALL = {"n": 3, "alpha": 4.0, "beta": 1.0, "x0_preset": "ramp", "seed": 5}


@pytest.mark.parametrize(
    "config",
    [
        dict(_SMALL, mode="simulate", times=[0.1, 0.2], replicas=3),
        dict(_SMALL, mode="distance", times=[0.1, 0.2], replicas=100),
        dict(_SMALL, mode="cutoff-profile", times=[0.5, 1.0], replicas=200, distances=["TV"]),
        dict(_SMALL, mode="cutoff-profile", times=[0.5], replicas=200, distances=["KL", "L2"],
             format="json"),
        dict(_SMALL, mode="check-cd", replicas=10),
        dict(_SMALL, mode="couple", times=[0.0, 0.1], replicas=4),
        {"mode": "ou-formulas", "n": 3, "m": 5, "times": [0.5, 1.0], "seed": 5},
    ],
    ids=["simulate", "distance", "profile-csv", "profile-json", "check-cd", "couple",
         "ou-formulas"],
)
def test_manifest_digests_are_those_of_the_files_on_disk(tmp_path, config):
    manifest = run(dict(config, out_dir=str(tmp_path)))
    names = [out["path"] for out in manifest.outputs]
    assert names and sorted(os.listdir(tmp_path)) == sorted(names + ["manifest.json"])
    for out in manifest.outputs:
        assert out["sha256"] == hashlib.sha256((tmp_path / out["path"]).read_bytes()).hexdigest()
    assert json.loads((tmp_path / "manifest.json").read_text())["outputs"] == manifest.outputs


def test_main_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("mode = simulate\nn = 4\nalpha = 2.0\nbeta = 1.0\n")
    assert main(["simulate", "--config", str(bad_cfg)]) == 2

    missing = main(["simulate", "--config", str(tmp_path / "nope.cfg")])
    assert missing == 4

    good_cfg = tmp_path / "good.cfg"
    good_cfg.write_text(
        "mode = simulate\nn = 2\nalpha = 3.0\nbeta = 1.0\n"
        "x0_preset = ramp\ntimes = 0.1\nreplicas = 2\n"
    )
    capsys.readouterr()
    code = main(["simulate", "--config", str(good_cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    # the manifest holds paths relative to out_dir; main prints them joined
    assert capsys.readouterr().out.startswith(f"wrote {tmp_path / 'out' / 'paths.csv'}  ")


def test_main_numeric_failure_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    from dyson_laguerre import _kernels

    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "n = 3\nalpha = 4.0\nbeta = 1.0\nx0_preset = ramp\ntimes = 0.1\nreplicas = 4\n"
    )
    monkeypatch.setattr(_kernels, "edl_drift_batch", lambda y, a, b: np.full_like(y, np.nan))
    out = tmp_path / "out"
    with np.errstate(invalid="ignore"):
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert not (out / "paths.csv").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "mode, text, args",
    [
        ("simulate", "seed = -3\n", []),
        ("simulate", "", ["--seed", "-3"]),
        ("simulate", "replicas = -2\n", []),
        ("simulate", "replicas = 0\n", []),
        ("check-cd", "replicas = 0\n", []),
        ("cutoff-profile", "replicas = -2\n", []),
    ],
    ids=["config-seed", "flag-seed", "negative-replicas", "zero-replicas", "zero-trials",
         "profile-negative-replicas"],
)
def test_main_rejects_negative_seed_and_too_few_replicas(tmp_path, capsys, mode, text, args):
    model = "n = 3\nalpha = 4.0\nbeta = 1.0\nx0_preset = ramp\ntimes = 0.1\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(model + text)
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--out", str(out), *args]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_negative_seed_and_too_few_replicas():
    base = {"mode": "ou-formulas", "n": 2, "m": 3}
    with pytest.raises(ValidationError):
        run(dict(base, seed=-1))
    with pytest.raises(ValidationError):
        run(dict(base, replicas=0))


def _profile_rows(out):
    with open(out / "profile.csv") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize(
    "text, default",
    [
        # Euler route without beta: beta = 1
        ("n = 3\nalpha = 4.0\ntimes = 0.8, 1.2\nreplicas = 200\ndistances = TV\n",
         "beta = 1.0\n"),
        # matrix route without replicas, which the profile does not read
        ("n = 8\ntimes = 0.6, 1.0\ndistances = TV, L2\n", "replicas = 4000\n"),
        # matrix route without n: the ladder 16, 64, 128 with m = n
        ("times = 0.7\nreplicas = 200\ndistances = TV\n", "n = 16, 64, 128\n"),
    ],
    ids=["beta", "replicas", "n"],
)
def test_cutoff_profile_omitted_keys_take_their_defaults(tmp_path, text, default):
    omitted = tmp_path / "omitted.cfg"
    omitted.write_text(text)
    explicit = tmp_path / "explicit.cfg"
    explicit.write_text(text + default)
    assert main(["cutoff-profile", "--config", str(omitted), "--out", str(tmp_path / "a")]) == 0
    assert main(["cutoff-profile", "--config", str(explicit), "--out", str(tmp_path / "b")]) == 0
    rows = _profile_rows(tmp_path / "a")
    assert rows and rows == _profile_rows(tmp_path / "b")
    if default.startswith("n ="):
        assert sorted({int(r["n"]) for r in rows}) == [16, 64, 128]


def test_cutoff_profile_euler_l2_at_time_zero(tmp_path):
    # a grid time 0 runs through the CLI; the Euler route's L2 upper bound is inf throughout
    cfg = tmp_path / "l2.cfg"
    cfg.write_text(
        "n = 4\nalpha = 6.0\nbeta = 2.0\nx0_preset = ramp\ntimes = 0, 0.5\n"
        "replicas = 200\ndistances = L2\n"
    )
    assert main(["cutoff-profile", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    rows = _profile_rows(tmp_path / "o")
    assert [float(r["t"]) == 0.0 for r in rows] == [True, False]
    assert all(float(r["bound_upper"]) == math.inf for r in rows)


@pytest.mark.parametrize(
    "config, artifact",
    [
        # e^{-4gt} rounds to 1: the matrix flow's closed forms take log(1 - e^{-4gt}) from expm1
        ({"mode": "ou-formulas", "n": 4, "times": [1e-300, 0.5]}, "ou_distances.csv"),
        ({"mode": "cutoff-profile", "n": 4, "times": [1e-17], "distances": ["KL", "L2"]},
         "profile.csv"),
        # e^{2t} overflows: the TV lower bound is 0 long before
        ({"mode": "cutoff-profile", "n": 4, "alpha": 12.0, "x0_preset": "ramp", "times": [700],
          "distances": ["TV"]}, "profile.csv"),
    ],
    ids=["ou-formulas-1e-300", "profile-matrix-1e-17", "profile-euler-700"],
)
def test_extreme_grid_times_end_in_values(tmp_path, config, artifact):
    run(dict(config, out_dir=str(tmp_path)))
    with open(tmp_path / artifact) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for r in rows:
        for key in ("value", "bound_lower", "bound_upper"):
            if key in r:
                assert not math.isnan(float(r[key])), r
    if artifact == "profile.csv":
        assert all(float(r["bound_lower"]) <= float(r["value"]) <= float(r["bound_upper"])
                   for r in rows)


def test_main_subcommand_overrides_mode(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "mode = simulate\nn = 2\nalpha = 3.0\nbeta = 1.0\n"
        "x0_preset = ramp\ntimes = 0.1\nreplicas = 2\n"
    )
    code = main(["check-cd", "--config", str(cfg), "--out", str(tmp_path / "cd"), "--seed", "5"])
    assert code == 0
    report = json.loads((tmp_path / "cd" / "cd_report.json").read_text())
    assert report["rho"] == 0.5
    assert not report["violated"]


def test_run_distance_writes_decay_curve(tmp_path):
    config = {
        "mode": "distance",
        "n": 2,
        "alpha": 3.0,
        "beta": 1.0,
        "x0_preset": "ramp",
        "times": [0.3, 0.6],
        "replicas": 100,
        "seed": 2,
        "out_dir": str(tmp_path),
        "format": "csv",
    }
    manifest = run(config)
    with open(tmp_path / manifest.outputs[0]["path"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[0]["envelope"]) > float(rows[1]["envelope"])
    assert all(float(r["value"]) >= 0 for r in rows)


def test_no_tmp_files_left(tmp_path):
    config = {
        "mode": "ou-formulas",
        "n": 2,
        "m": 3,
        "times": [0.5, 1.0],
        "seed": 0,
        "out_dir": str(tmp_path),
        "format": "csv",
    }
    run(config)
    stray = [p for p in os.listdir(tmp_path) if p.endswith(".tmp") or ".tmp." in p]
    assert stray == []


def test_run_simulate_matrix_route_projects_once_per_grid_time(tmp_path, monkeypatch):
    # the matrix route stacks every replica: one eigensolve call per grid
    # time, whatever the replica count
    from dyson_laguerre import simulate

    calls = []
    live = simulate.spectral_projection

    def counting(M):
        calls.append(np.shape(M))
        return live(M)

    monkeypatch.setattr(simulate, "spectral_projection", counting)
    config = {
        "mode": "simulate",
        "n": 3,
        "m": 5,
        "times": [0.1, 0.2, 0.5],
        "replicas": 6,
        "seed": 4,
        "out_dir": str(tmp_path),
        "format": "csv",
    }
    manifest = run(config)
    assert calls == [(6, 3, 5)] * 3
    with open(tmp_path / manifest.outputs[0]["path"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 3 * 3  # replicas x times x coordinates


def _csv_text_per_row(header, rows):
    """Reference: plain csv.writer, one row at a time."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


def _path_csv_rows_per_value(times, states, replica):
    """Reference: cli._path_csv_rows as it stood, one replica at a time."""
    for k, t in enumerate(times):
        x = states[k]
        for j, v in enumerate(np.asarray(x, dtype=float).reshape(-1)):
            yield replica, float(t), j, float(v)


def test_csv_text_matches_csv_writer_bytes():
    from dyson_laguerre.cli import _csv_text

    floats = [0.0, -0.0, 1e-300, 5e-324, 1e16, -1e16, 1.0 / 3.0, 2.5e-7, math.inf,
              -math.inf, math.nan, np.float64(2.5), np.float64(-0.0), np.float64(1e16)]
    ints = [0, -7, 12, 2**70, True, np.int64(3)]
    strs = ["TV", "x", "a,b", 'say "hi"', '"', ",", "two\nlines", "cr\rhere", "", " lead",
            "tab\there"]
    fields = floats + ints + strs + [None]
    rng = np.random.default_rng(23)
    cases = [(("replica", "time", "leg", "coord_index", "value"),
              [(rep, 0.5, "y", j, v) for rep in range(3) for j, v in enumerate([1.25, 3e-5])]),
             (("a,b", 'q"', "n\nl"), [fields[i:i + 3] for i in range(0, len(fields) - 2, 3)])]
    for width in range(2, 7):
        header = tuple(f"c{k}" for k in range(width))
        # one column of each kind: every field of one type, and mixed types
        columns = [[floats[k % len(floats)] for k in range(40)],
                   [ints[k % len(ints)] for k in range(40)],
                   [strs[k % len(strs)] for k in range(40)],
                   [fields[k] for k in rng.integers(len(fields), size=40)]]
        rows = list(zip(*(columns[k % 4] for k in range(width))))
        rows += [[fields[k] for k in rng.integers(len(fields), size=width)] for _ in range(60)]
        cases.append((header, rows))
    for header, rows in cases:
        want = _csv_text_per_row(header, rows)
        got = _csv_text(header, rows)
        assert got.encode() == want.encode()
        assert _csv_text(header, []) == _csv_text_per_row(header, [])
    # a numpy float is written as its value, not as its numpy 2 repr
    assert _csv_text(("t", "value"), [(np.float64(0.5), np.float64(-0.0))]) == "t,value\n0.5,-0.0\n"


def test_csv_text_rejects_rows_that_do_not_fit_the_header():
    from dyson_laguerre.cli import _csv_text

    with pytest.raises(SerializationError):
        _csv_text(("a", "b"), [(1.0, 2.0), (1.0, 2.0, 3.0)])
    with pytest.raises(SerializationError):
        _csv_text(("a", "b", "c"), [(1.0, 2.0)])


# Frozen reference: cli._path_csv_rows as it stood, one row tuple per value.
def _path_csv_rows_frozen(times, paths):
    times = times.tolist()
    return [
        (rep, t, j, v)
        for rep, path in enumerate(paths.transpose(1, 0, 2).tolist())
        for t, x in zip(times, path)
        for j, v in enumerate(x)
    ]


# Frozen reference: the coupled_paths.csv rows of cli._run_couple as it stood.
def _coupled_csv_rows_frozen(times, sa, sb):
    grid = times.tolist()
    return [
        (rep, t, leg, j, v)
        for rep, legs in enumerate(zip(sa.transpose(1, 0, 2).tolist(),
                                       sb.transpose(1, 0, 2).tolist()))
        for leg, path in zip(("x", "y"), legs)
        for t, x in zip(grid, path)
        for j, v in enumerate(x)
    ]


@pytest.mark.parametrize("route", ["matrix", "sde"])
def test_run_simulate_paths_csv_matches_per_row_writer(tmp_path, route, monkeypatch):
    from dyson_laguerre import cli

    name = "matrix_dl_path" if route == "matrix" else "dl_paths_batch"
    live = getattr(cli, name)
    seen = []

    def capture(*args, **kwargs):
        seen.append(live(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, name, capture)
    # (replicas, n, times): a small case, one replica of one particle, and
    # on the matrix route the benchmark's simulate step (200 x 3 x 16)
    sizes = [(7, 4, [0.0, 0.3, 1.0]), (1, 1, [0.0, 0.3, 1.0])]
    if route == "matrix":
        sizes.append((200, 16, [0.5, 1.0, 2.0]))
    for replicas, n, grid in sizes:
        config = {"mode": "simulate", "n": n, "times": grid, "replicas": replicas, "seed": 9,
                  "out_dir": str(tmp_path / f"{replicas}x{n}"), "format": "csv"}
        config.update({"m": n + 2 if n < 16 else n} if route == "matrix"
                      else {"alpha": 5.0, "beta": 1.0, "x0_preset": "ramp"})
        manifest = run(config)
        out = seen.pop()
        assert out.shape == (len(grid), replicas, n)
        times = np.asarray(grid, dtype=float)
        rows = []
        for rep in range(replicas):
            rows.extend(_path_csv_rows_per_value(times, out[:, rep, :], rep))
        assert rows == _path_csv_rows_frozen(times, out)
        want = _csv_text_per_row(("replica", "time", "coord_index", "value"), rows)
        with open(os.path.join(config["out_dir"], manifest.outputs[0]["path"]), "rb") as fh:
            assert fh.read() == want.encode()


def test_run_couple_csv_matches_per_row_writer(tmp_path, monkeypatch):
    from dyson_laguerre import coupling

    live = coupling.run_coupled_batch
    seen = []

    def capture(*args, **kwargs):
        seen.append(live(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(coupling, "run_coupled_batch", capture)
    # (replicas, n, times): a small case, one pair of one particle, and the
    # benchmark's couple step (100 pairs, n = 4, 5 grid times)
    sizes = [(5, 3, [0.0, 0.05, 0.1]), (1, 1, [0.0, 0.05, 0.1]),
             (100, 4, [0.0, 0.25, 0.5, 0.75, 1.0])]
    for replicas, n, grid in sizes:
        config = {"mode": "couple", "n": n, "alpha": 4.0, "beta": 1.0, "x0_preset": "ramp",
                  "times": grid, "replicas": replicas, "seed": 2,
                  "out_dir": str(tmp_path / f"{replicas}x{n}"), "format": "csv"}
        manifest = run(config)
        sa, sb, _ = seen.pop()
        assert sa.shape == sb.shape == (len(grid), replicas, n)
        rows = []
        for rep in range(replicas):
            for leg, arr in (("x", sa), ("y", sb)):
                for k, t in enumerate(np.asarray(grid, dtype=float)):
                    for j, v in enumerate(arr[k, rep]):
                        rows.append((rep, float(t), leg, j, float(v)))
        assert rows == _coupled_csv_rows_frozen(np.asarray(grid, dtype=float), sa, sb)
        want = _csv_text_per_row(("replica", "time", "leg", "coord_index", "value"), rows)
        path = [o["path"] for o in manifest.outputs if o["path"].endswith("coupled_paths.csv")]
        with open(os.path.join(config["out_dir"], path[0]), "rb") as fh:
            assert fh.read() == want.encode()


def test_matrix_simulate_replica_streams_avoid_the_start_stream(tmp_path, monkeypatch):
    from dyson_laguerre import cli, equilibrium

    def key(gen):
        seq = gen.bit_generator.seed_seq
        return seq.entropy, seq.spawn_key

    starts, paths = [], []
    live_build, live_path = equilibrium.build_x0, cli.matrix_dl_path

    def capture_start(preset, params, gen, **kwargs):
        starts.append(key(gen))
        return live_build(preset, params, gen, **kwargs)

    def capture_path(x0, times, mp, rng, **kwargs):
        paths.append(key(rng.generator()))
        return live_path(x0, times, mp, rng, **kwargs)

    monkeypatch.setattr(equilibrium, "build_x0", capture_start)
    monkeypatch.setattr(cli, "matrix_dl_path", capture_path)
    run({"mode": "simulate", "n": 2, "m": 2, "x0_preset": "equilibrium-draw", "times": [0.1],
         "replicas": 901, "seed": 7, "out_dir": str(tmp_path), "format": "csv"})
    # the matrix route's one source is keyed (0,), never the start's (900, 0)
    assert starts == [(7, (900, 0))] and paths == [(7, (0,))]


_ARRAY_TIMES_CONFIGS = {
    "simulate": {"n": 3, "alpha": 6.0, "x0_preset": "ramp", "replicas": 20},
    "distance": {"n": 2, "alpha": 3.0, "x0_preset": "ramp", "replicas": 100},
    "couple": {"n": 2, "alpha": 3.0, "x0_preset": "ramp", "replicas": 10},
    "ou-formulas": {"n": 3, "m": 5, "x0_preset": "ramp"},
}


def _run_outputs(config):
    """(config_hash, artifact bytes by name) of a run, or its error type."""
    try:
        manifest = run(config)
    except DysonLaguerreError as exc:
        return type(exc)
    out = {}
    for o in manifest.outputs:
        with open(os.path.join(config["out_dir"], o["path"]), "rb") as fh:
            out[o["path"]] = fh.read()
    return manifest.config_hash, out


@pytest.mark.parametrize("mode", list(_ARRAY_TIMES_CONFIGS))
def test_array_times_give_the_list_artifacts(tmp_path, mode):
    # an array of times is read as the list it holds, not as a truth value:
    # a grid of one 0 is a grid time (ou-formulas rejects it in both forms),
    # and only an empty grid takes the mode's default
    base = dict(_ARRAY_TIMES_CONFIGS[mode], mode=mode, seed=4, out_dir=str(tmp_path))
    got = {}
    for grid in ((0.1, 0.25), (0.0,), ()):
        got[grid] = _run_outputs(dict(base, times=list(grid)))
        assert _run_outputs(dict(base, times=np.array(grid))) == got[grid]
    assert got[(0.0,)] != got[()]
    if mode == "ou-formulas":
        assert got[(0.0,)] is DomainError


class _Reached(Exception):
    """Raised by a stub driver once it has recorded what a mode built."""


_ROUTE_CONFIGS = {
    "alpha": {"n": 4, "alpha": 6.0, "beta": 2.0},
    "m": {"n": 4, "m": 8},
    "both": {"n": 4, "alpha": 6.0, "beta": 2.0, "m": 8},
    "neither": {"n": 4},
    "m-beta": {"n": 4, "m": 8, "beta": 2.0},
}

# (driver reached, params, params.allow_weak, matrix params), or an error type
_EULER = (ModelParams(4, 6.0, 2.0), False, None)
_MATRIX_8 = (ModelParams(4, 4.0, 1.0, allow_weak=True), True, MatrixParams.bru(4, 8))
_MATRIX_4 = (ModelParams(4, 2.0, 1.0, allow_weak=True), True, MatrixParams.bru(4, 4))
_ROUTE_TABLE = {
    "simulate": {"alpha": ("dl_paths_batch", *_EULER),
                 "m": ("matrix_dl_path", *_MATRIX_8),
                 "both": ("dl_paths_batch", *_EULER),
                 "neither": ("matrix_dl_path", *_MATRIX_4),
                 "m-beta": UnsupportedRegime},
    "distance": {"alpha": ("wg_decay_estimate", *_EULER),
                 "m": ("wg_decay_estimate", *_MATRIX_8[:2], None),
                 "both": ("wg_decay_estimate", *_EULER),
                 "neither": ("wg_decay_estimate", *_MATRIX_4[:2], None),
                 "m-beta": UnsupportedRegime},
    "couple": {"alpha": ("run_coupled_batch", *_EULER),
               "m": ("run_coupled_batch", *_MATRIX_8[:2], None),
               "both": ("run_coupled_batch", *_EULER),
               "neither": ("run_coupled_batch", *_MATRIX_4[:2], None),
               "m-beta": UnsupportedRegime},
    "check-cd": {"alpha": ("cd_certificate", *_EULER),
                 "m": ("cd_certificate", *_MATRIX_8[:2], None),
                 "both": ("cd_certificate", *_EULER),
                 "neither": ("cd_certificate", *_MATRIX_4[:2], None),
                 "m-beta": UnsupportedRegime},
    "ou-formulas": {"alpha": UnsupportedRegime,
                    "m": ("ou_closed_form_distances", *_MATRIX_8),
                    "both": UnsupportedRegime,
                    "neither": ("ou_closed_form_distances", *_MATRIX_4),
                    "m-beta": UnsupportedRegime},
    "cutoff-profile": {"alpha": ("_cutoff_bracket", *_EULER),
                       "m": ("_cutoff_bracket", *_MATRIX_8),
                       "both": ("_cutoff_bracket", *_EULER),
                       "neither": ("_cutoff_bracket", *_MATRIX_4),
                       "m-beta": UnsupportedRegime},
}


def _route_built(monkeypatch, config):
    """What a run of config builds before its first path driver or formula:
    (driver, params, params.allow_weak, matrix params), or the type of the
    error it raises first.  Each driver is a stub that records its
    arguments and stops the run; the params of a matrix-route driver that
    takes none are those its start was built with."""
    from dyson_laguerre import cli, coupling, cutoff, equilibrium, geometry

    seen = {}

    def record(driver, params=None, matrix=None):
        seen.update(driver=driver, matrix=matrix)
        if params is not None:
            seen["params"] = params
        raise _Reached

    live_build = equilibrium.build_x0

    def build_x0(preset, params, gen, **kwargs):
        seen["params"] = params
        return live_build(preset, params, gen, **kwargs)

    stubs = [
        (equilibrium, "build_x0", build_x0),
        (cli, "dl_paths_batch",
         lambda x0, times, params, rng, **kw: record("dl_paths_batch", params)),
        (cli, "matrix_dl_path",
         lambda x0, times, mp, rng, **kw: record("matrix_dl_path", None, mp)),
        (coupling, "wg_decay_estimate",
         lambda x0, times, params, *a: record("wg_decay_estimate", params)),
        (coupling, "run_coupled_batch",
         lambda x0, y0, times, params, *a, **kw: record("run_coupled_batch", params)),
        (geometry, "cd_certificate", lambda params, *a: record("cd_certificate", params)),
        (cli, "ou_closed_form_distances",
         lambda mp, t, z0_sq: record("ou_closed_form_distances", None, mp)),
        (cutoff, "_cutoff_bracket",
         lambda kind, obs, params, matrix: record("_cutoff_bracket", params, matrix)),
    ]
    for module, name, stub in stubs:
        monkeypatch.setattr(module, name, stub)
    try:
        run(config)
    except _Reached:
        params = seen["params"]
        return seen["driver"], params, params.allow_weak, seen["matrix"]
    except DysonLaguerreError as exc:
        return type(exc)
    raise AssertionError("the run reached no driver")


@pytest.mark.parametrize("keys", list(_ROUTE_CONFIGS))
@pytest.mark.parametrize("mode", list(_ROUTE_TABLE))
def test_route_rule_table(tmp_path, monkeypatch, mode, keys):
    # one route rule for every mode: alpha selects the Euler route, otherwise
    # the matrix route with m = n by default; each mode accepts its routes
    config = dict(_ROUTE_CONFIGS[keys], mode=mode, x0_preset="ramp", times=[0.5, 1.0],
                  replicas=100, seed=1, out_dir=str(tmp_path))
    assert _route_built(monkeypatch, config) == _ROUTE_TABLE[mode][keys]


@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("mode", ["couple", "distance"])
def test_induced_model_with_small_delta_runs_exactly(tmp_path, monkeypatch, mode, m):
    # on the matrix route distance and couple sample the induced model
    # exactly, delta = (m - n + 1)/2 <= 1 too, and call no Euler layer
    from dyson_laguerre import coupling

    def unreachable(*args, **kwargs):
        raise AssertionError("an Euler layer ran on a matrix-route config")

    for name in ("dl_paths_batch", "_advance_pairs"):
        monkeypatch.setattr(coupling, name, unreachable)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 4\nm = {m}\ntimes = 0.5, 1\nreplicas = 100\nseed = 1\n")
    out = tmp_path / "out"
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == 0
    if mode == "couple":
        summary = json.loads((out / "coupling_summary.json").read_text())
        assert summary["coupling"] == "reflection"


@pytest.mark.parametrize(
    "keys, exact",
    [({"alpha": 4.0}, True), ({"m": 8}, True), ({"alpha": 3.25}, False)],
    ids=["realizable-euler-route", "matrix-route", "not-realizable"],
)
@pytest.mark.parametrize("mode, driver", [("distance", "wg_decay_estimate"),
                                          ("couple", "run_coupled_batch")])
def test_zero_preset_starts_at_zero_unless_the_scheme_runs(tmp_path, monkeypatch, mode, driver,
                                                           keys, exact):
    # the exact matrix-flow runs start where the config says; only the Euler
    # scheme, which cannot start at 0, takes the 1e-4 ramp and notes it
    from dyson_laguerre import coupling

    starts = []
    real = getattr(coupling, driver)

    def spy(x0, *args, **kwargs):
        starts.append(np.array(x0))
        return real(x0, *args, **kwargs)

    monkeypatch.setattr(coupling, driver, spy)
    config = dict(keys, mode=mode, n=4, x0_preset="zero", times=[0.1, 0.2], replicas=100,
                  seed=1, out_dir=str(tmp_path))
    manifest = run(config)
    if exact:
        assert starts[0].tobytes() == np.zeros(4).tobytes()
        assert manifest.fallbacks == []
    else:
        assert starts[0].tobytes() == (1e-4 * np.arange(1.0, 5.0)).tobytes()
        assert manifest.fallbacks == [
            "zero preset replaced by 1e-4 ramp (scheme needs a positive start)"]
