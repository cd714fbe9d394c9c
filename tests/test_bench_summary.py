import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_summary_module():
    path = os.path.join(REPO_ROOT, "scripts", "bench_summary.py")
    spec = importlib.util.spec_from_file_location("bench_summary", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(version, wall, rss, outcomes):
    return {"fingerprint": {"dyson_laguerre": version, "python": "3.11", "numpy": "2.4"},
            "ops": [{"op": k, "outcome": o} for k, o in enumerate(outcomes)],
            "metrics": {"wall_s": wall, "peak_rss_mb": rss}}


def _write(directory, name, doc):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(json.dumps(doc))


def test_summary_folds_paired_records(tmp_path):
    summary = _load_summary_module()
    parent, change = tmp_path / "parent", tmp_path / "change"
    walls = [(1.0, 0.7), (1.2, 0.8), (0.9, 0.95), (1.1, 0.6)]
    for seed, (a, b) in enumerate(walls, start=10):
        _write(parent, f"w-seed{seed}-trace0.json",
               _record("0.4.0", a, 80.0, ["ok", "numeric"] if seed == 10 else ["ok", "ok"]))
        _write(change, f"w-seed{seed}-trace0.json", _record("0.5.0", b, 81.0, ["ok", "ok"]))
    # unpaired and traced records are left out
    _write(parent, "w-seed99-trace0.json", _record("0.4.0", 5.0, 80.0, ["ok"]))
    _write(change, "w-seed10-trace1.json", _record("0.5.0", 9.0, 80.0, ["ok"]))
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    out = tmp_path / "BENCH.json"
    assert summary.main(["--parent", str(parent), "--change", str(change), "--out", str(out),
                         "--benchmark", str(benchmark)]) == 0
    doc = json.loads(out.read_text())
    assert doc["versions"] == {"parent": ["0.4.0"], "change": ["0.5.0"]}
    entry = doc["workloads"]["w"]
    assert entry["pairs"] == 4 and entry["seeds"] == [10, 11, 12, 13]
    assert entry["fail_frac"] == {"parent": 1 / 8, "change": 0.0}
    wall = entry["metrics"]["wall_s"]
    assert wall["pairs_won"] == 3
    assert wall["parent"]["median"] == pytest.approx(1.05)
    assert wall["parent"]["q1"] == pytest.approx(0.975)
    assert wall["parent"]["q3"] == pytest.approx(1.125)
    assert wall["change"]["median"] == pytest.approx(0.75)
    assert wall["ratio"] == pytest.approx(0.75 / 1.05)
    assert entry["metrics"]["peak_rss_mb"]["pairs_won"] == 0
    # a metric some record lacks is not summarized
    assert "setup_s" not in entry["metrics"]


def test_summary_without_pairs_fails(tmp_path):
    summary = _load_summary_module()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert summary.main(["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
                         "--out", str(tmp_path / "o.json")]) == 2
    assert not (tmp_path / "o.json").exists()
