import importlib.util
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_script():
    path = os.path.join(REPO_ROOT, "scripts", "artifact_digests.py")
    spec = importlib.util.spec_from_file_location("artifact_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_repeat_and_a_changed_seed_shows(tmp_path, capsys):
    script = _load_script()
    assert len(script.grid()) == 624
    configs = [
        {"mode": "couple", "n": 2, "alpha": 3.0, "x0_preset": "zero", "seed": 0,
         "times": [0.5], "replicas": 3},
        {"mode": "ou-formulas", "n": 2, "alpha": 3.0, "seed": 0},
    ]
    first = script.digests(configs)
    assert first == script.digests(configs)
    couple, ou = (first[script.label(c)] for c in configs)
    assert sorted(couple) == ["coupled_paths.csv", "coupling_summary.json"]
    assert ou == {"error": "UnsupportedRegime"}  # alpha takes the Euler route

    # a changed seed changes the couple run's artifacts, and --compare lists it
    (reseeded,) = script.digests([dict(configs[0], seed=1)]).values()
    assert reseeded != couple
    other = dict(first)
    other[script.label(configs[0])] = reseeded
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path, doc in zip(paths, (first, other)):
        with open(path, "w") as fh:
            json.dump({"configs": doc}, fh)
    assert script.main(["--compare"] + paths) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == script.label(configs[0])
    assert json.loads(out[-1]) == {"equal": 1, "differ": 1, "only_first": 0, "only_second": 0}

    # all equal exits 0; a config in one file only exits 1
    assert script.main(["--compare", paths[0], paths[0]]) == 0
    with open(paths[1], "w") as fh:
        json.dump({"configs": {script.label(configs[1]): ou}}, fh)
    assert script.main(["--compare"] + paths) == 1
    out = capsys.readouterr().out.splitlines()
    assert json.loads(out[0]) == {"equal": 2, "differ": 0, "only_first": 0, "only_second": 0}
    assert json.loads(out[1]) == {"equal": 1, "differ": 0, "only_first": 1, "only_second": 0}
