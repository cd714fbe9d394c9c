"""Run a grid of CLI configs and record the sha256 of every artifact.

    python3 scripts/artifact_digests.py --out DIGESTS.json
    python3 scripts/artifact_digests.py --compare A.json B.json

The grid is every mode x model x start preset x seed below, 624 configs,
each with the small run sizes of COMMON.  Each config runs through
`dyson_laguerre.cli.run` in a temporary directory, with the package
imported from the `src/` of the checkout this script sits in; copy the
script into another checkout to sweep that one.  The record of a config is
{artifact file name: sha256 of its bytes on disk} for every file the run
wrote except `manifest.json`, whose timestamps differ between runs, or
{"error": class name} when the run raised a package error.  `--compare`
prints the configs whose records differ between two such files, and the
count of configs that are equal, differ, or are in one file only.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODES = ("simulate", "distance", "cutoff-profile", "check-cd", "couple", "ou-formulas")
# the Euler route on models a matrix flow realizes (beta = 1, 2 alpha an
# integer) and on models none does, the matrix route at delta > 1 and
# delta <= 1, one model that ModelParams refuses, and one model of 8
# coordinates, where a sum over coordinates in another order can round
# otherwise
MODELS = (
    {"n": 4, "alpha": 4.0},
    {"n": 2, "alpha": 3.0},
    {"n": 1, "alpha": 2.5},
    {"n": 4, "alpha": 3.25},
    {"n": 3, "alpha": 5.0, "beta": 2.0},
    {"n": 2, "alpha": 2.0, "beta": 0.0},
    {"n": 4, "m": 8},
    {"n": 3, "m": 7},
    {"n": 4, "m": 5},
    {"n": 4},
    {"n": 2},
    {"n": 4, "alpha": 2.0},
    {"n": 8, "alpha": 8.0},
)
PRESETS = ("zero", "equilibrium-draw", "linear-ramp", "single-outlier")
SEEDS = (0, 5)
COMMON = {"times": [0.5, 1.0], "replicas": 100}


def grid():
    """The configs of the sweep, without out_dir."""
    return [dict(model, mode=mode, x0_preset=preset, seed=seed, **COMMON)
            for mode in MODES for model in MODELS for preset in PRESETS for seed in SEEDS]


def label(config):
    """A config's key in the record: its keys but out_dir, in sorted order."""
    return json.dumps({k: v for k, v in config.items() if k != "out_dir"}, sort_keys=True)


def digests(configs):
    """{label: record} for the configs, each run in a fresh directory."""
    from dyson_laguerre.cli import run
    from dyson_laguerre.errors import DysonLaguerreError

    out = {}
    for config in configs:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                run(dict(config, out_dir=tmp))
            except DysonLaguerreError as exc:
                out[label(config)] = {"error": type(exc).__name__}
                continue
            record = {}
            for name in sorted(os.listdir(tmp)):
                if name != "manifest.json":
                    with open(os.path.join(tmp, name), "rb") as fh:
                        record[name] = hashlib.sha256(fh.read()).hexdigest()
            out[label(config)] = record
    return out


def compare(a, b):
    """(labels whose records differ, counts) for two {label: record} maps."""
    differ = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    counts = {"equal": len(a.keys() & b.keys()) - len(differ), "differ": len(differ),
              "only_first": len(a.keys() - b.keys()), "only_second": len(b.keys() - a.keys())}
    return differ, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="JSON file to write the sweep's records to")
    action.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="two files --out wrote; print the configs that differ")
    args = parser.parse_args(argv)
    if args.compare:
        docs = []
        for path in args.compare:
            with open(path) as fh:
                docs.append(json.load(fh)["configs"])
        differ, counts = compare(*docs)
        for key in differ:
            print(f"{key}\n  {docs[0][key]}\n  {docs[1][key]}")
        print(json.dumps(counts, sort_keys=True))
        return 0
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dyson_laguerre

    doc = {"version": dyson_laguerre.__version__, "configs": digests(grid())}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
