"""Fold paired benchmark run records into one summary JSON file.

    python3 scripts/bench_summary.py --parent DIR --change DIR --out SUMMARY.json

DIR holds the run records that `bench/run.py --trace 0` writes to
`.bench_out/records/` of the checkout it ran in, one file per
(workload, seed): `<workload>-seed<seed>-trace0.json`.  A parent record and
a change record with the same workload and seed make one pair; a record
without its partner is left out.  For each workload and each end-to-end
metric that BENCHMARK.json declares, the summary holds the median and the
quartiles of each side's runs, their ratio, and the number of pairs the
change won (its value better in the metric's direction).  `fail_frac` is
the share of each side's ops that failed, over all its paired runs.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")
FINGERPRINT_KEYS = ("python", "numpy", "scipy", "machine", "nproc", "cpus_usable",
                    "kernel_backend", "seconds")


def read_records(directory):
    """{(workload, seed): record} for the untraced run records in directory."""
    out = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        match = RECORD.match(os.path.basename(path))
        if match:
            with open(path) as fh:
                out[(match["workload"], int(match["seed"]))] = json.load(fh)
    return out


def spread(values):
    """Median and inclusive quartiles of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def fail_frac(records):
    ops = [op for record in records for op in record["ops"]]
    return sum(op["outcome"] != "ok" for op in ops) / len(ops) if ops else None


def summarize(parent, change, metrics):
    """The summary document for paired records; metrics is BENCHMARK.json's
    end_to_end list."""
    workloads = {}
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        pa = [parent[(workload, s)] for s in seeds]
        ch = [change[(workload, s)] for s in seeds]
        entry = {"pairs": len(seeds), "seeds": seeds,
                 "fail_frac": {"parent": fail_frac(pa), "change": fail_frac(ch)},
                 "ops": {"parent": sum(len(r["ops"]) for r in pa),
                         "change": sum(len(r["ops"]) for r in ch)},
                 "metrics": {}}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            if not all(name in r["metrics"] for r in pa + ch):
                continue
            a = [r["metrics"][name] for r in pa]
            b = [r["metrics"][name] for r in ch]
            won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            sa, sb = spread(a), spread(b)
            entry["metrics"][name] = {
                "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                "parent": sa, "change": sb,
                "ratio": sb["median"] / sa["median"] if sa["median"] else None,
                "pairs_won": won,
            }
        workloads[workload] = entry
    first = next(iter(change.values()), None) or next(iter(parent.values()), {})
    env = first.get("fingerprint", {})
    versions = {side: sorted({r["fingerprint"].get("dyson_laguerre") for r in recs.values()})
                for side, recs in (("parent", parent), ("change", change))}
    return {"environment": {k: env.get(k) for k in FINGERPRINT_KEYS},
            "versions": versions, "workloads": workloads}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="directory of the parent's records")
    parser.add_argument("--change", required=True, help="directory of the change's records")
    parser.add_argument("--out", required=True, help="summary JSON file to write")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="BENCHMARK.json naming the end-to-end metrics")
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        metrics = json.load(fh)["end_to_end"]
    doc = summarize(read_records(args.parent), read_records(args.change), metrics)
    if not doc["workloads"]:
        print("bench_summary: no paired records", file=sys.stderr)
        return 2
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for workload, entry in doc["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:20s} {name:12s} parent {m['parent']['median']:.4g} "
                  f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}]  change "
                  f"{m['change']['median']:.4g} [{m['change']['q1']:.4g}, "
                  f"{m['change']['q3']:.4g}]  won {m['pairs_won']}/{entry['pairs']}")
        print(f"{workload:20s} fail_frac parent {entry['fail_frac']['parent']:.4f} "
              f"change {entry['fail_frac']['change']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
