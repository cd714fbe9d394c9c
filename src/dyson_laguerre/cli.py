"""Flat-file configuration, experiment dispatch, and report emission.

Configs are one `key = value` pair per line; blank lines and lines starting
with # are skipped.  Documented keys, all optional unless an experiment
needs them:

    mode        experiment name: simulate | distance | cutoff-profile |
                check-cd | couple | ou-formulas
    n           particle count; comma list allowed for profile ladders
    m           matrix column count; selects the matrix route where it applies
    alpha       shape parameter (Euler route)
    beta        repulsion strength (Euler route; default 1)
    x0_preset   zero | equilibrium-draw | linear-ramp | single-outlier
    times       comma list of grid times (profile: multipliers of c_n)
    replicas    Monte Carlo replicas, at least 1 (also: trials for check-cd)
    distances   comma list of kinds among TV, KL, L2, W
    seed        nonnegative 64-bit integer (default 0)
    out_dir     output directory (default .)
    format      csv | json (default csv); cutoff-profile only, the other
                modes always write the files their experiment names

Each experiment returns its artifacts, an ordered list of (file name,
text), and run() alone writes them: atomically (temp file in the
destination directory, then rename), with a sha256 of the bytes written.
On failure any files already written by the run are removed and no
manifest is produced.  Exit codes: 0 success, 2 config error, 3 numeric
failure, 4 I/O error.
"""

from dataclasses import dataclass, field
import argparse
import csv
import datetime
import hashlib
import io
import json
import os
from operator import attrgetter
import sys

import numpy as np

from . import __version__
from .errors import (
    CollisionError,
    DysonLaguerreError,
    NumericError,
    ParseError,
    SerializationError,
    ValidationError,
)
from .model import ModelParams, observable_phi
from .simulate import MatrixParams, RngStream, matrix_dl_path, dl_paths_batch
from .cutoff import CutoffProfile, ProfileRow, run_cutoff_profile
from .transport import OUParams, ou_closed_form_distances

_DEFAULTS = {
    "mode": None,
    "n": None,
    "m": None,
    "alpha": None,
    "beta": None,
    "x0_preset": "zero",
    "times": None,
    "replicas": None,
    "distances": None,
    "seed": 0,
    "out_dir": ".",
    "format": "csv",
}

CONFIG_KEYS = tuple(_DEFAULTS)


def _parse_scalar(key, raw, line_no, col):
    try:
        if key in ("seed", "replicas", "m"):
            return int(raw)
        if key in ("alpha", "beta"):
            return float(raw)
    except ValueError:
        raise ParseError(f"key {key!r} needs a number, got {raw!r}", line=line_no, column=col)
    return raw


def parse_config(text):
    """Parse a flat key = value document into a validated config dict.

    Unknown and duplicate keys are rejected with the offending line;
    numeric values are checked, comma lists split, and when (n, alpha,
    beta) pin down a model the admissibility inequality is checked here so
    that bad regimes fail before any experiment starts.
    """
    config = dict(_DEFAULTS)
    seen = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected key = value", line=line_no, column=1)
        key, _, raw = line.partition("=")
        key = key.strip()
        col = raw_line.index("=") + 2
        raw = raw.strip()
        if key not in CONFIG_KEYS:
            raise ParseError(f"unknown key {key!r}", line=line_no, column=1)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", line=line_no, column=1)
        seen.add(key)
        if raw == "":
            raise ParseError(f"key {key!r} has no value", line=line_no, column=col)
        if key == "n":
            try:
                vals = [int(v.strip()) for v in raw.split(",")]
            except ValueError:
                raise ParseError(f"key 'n' needs integers, got {raw!r}", line=line_no, column=col)
            config["n"] = vals[0] if len(vals) == 1 else vals
        elif key == "times":
            try:
                config["times"] = [float(v.strip()) for v in raw.split(",")]
            except ValueError:
                raise ParseError(f"key 'times' needs numbers, got {raw!r}", line=line_no, column=col)
        elif key == "distances":
            config["distances"] = [v.strip() for v in raw.split(",") if v.strip()]
        else:
            config[key] = _parse_scalar(key, raw, line_no, col)

    if config["mode"] is not None and config["mode"] not in _MODES:
        raise ParseError(f"mode must be one of {', '.join(_MODES)}, got {config['mode']!r}")
    if config["format"] not in ("csv", "json"):
        raise ParseError(f"format must be csv or json, got {config['format']!r}")
    if config["alpha"] is not None and config["n"] is not None:
        beta = config["beta"] if config["beta"] is not None else 1.0
        ns = config["n"] if isinstance(config["n"], list) else [config["n"]]
        for n in ns:
            ModelParams(n, config["alpha"], beta)
    return config


def serialize_config(config):
    """Canonical text form of a config; parse(serialize(parse(t))) is
    parse(t).  A list, tuple or 1-D array is written as a comma list of its
    values, so the list and array forms of one config share a digest."""
    lines = []
    for key in CONFIG_KEYS:
        val = config.get(key)
        if val is None:
            continue
        if isinstance(val, np.ndarray) and val.ndim == 1:
            val = val.tolist()
        if isinstance(val, (list, tuple)):
            lines.append(f"{key} = {', '.join(str(v) for v in val)}")
        else:
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def config_digest(config):
    """sha256 over the canonical serialization: the run identity."""
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    mode: str
    artifact_version: str
    started: str
    finished: str
    outputs: list
    fallbacks: list = field(default_factory=list)

    def to_json(self):
        return json.dumps(self.__dict__, indent=2, sort_keys=True) + "\n"


def _atomic_write(path, data):
    """Write bytes (or text) to path via a temp file and rename."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    d = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(d, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# a field holding one of these may need csv quoting
_CSV_SPECIAL = frozenset(',"\r\n')
# types whose repr is the text csv.writer writes for them (floats go in as repr)
_CSV_REPR_TYPES = frozenset((int, float))


def _csv_field(v):
    """One field as csv.writer (QUOTE_MINIMAL) writes it, a float as its repr."""
    if isinstance(v, str):
        s = v
    elif isinstance(v, float):
        s = repr(v)
    else:
        s = "" if v is None else str(v)
    if _CSV_SPECIAL.isdisjoint(s):
        return s
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((s,))
    return buf.getvalue()[:-1]


def _csv_column(values):
    """The csv fields of one column."""
    if _CSV_REPR_TYPES.issuperset(map(type, values)):
        return map(repr, values)
    return map(_csv_field, values)


def _csv_text(header, rows):
    """CSV text with "\\n" line ends: byte for byte what csv.writer writes for
    the header and rows, each float written as its repr.  Every row has one
    field per header column, and there are at least two columns."""
    if set(map(len, rows)) - {len(header)}:
        raise SerializationError(f"every row needs {len(header)} fields")
    columns = [_csv_column(col) for col in zip(*rows)]
    return "\n".join([",".join(map(_csv_field, header)), *map(",".join, zip(*columns)), ""])


def _path_table_text(header, heads, paths):
    """CSV text of a path table: under header, for each head (the fields
    before coord_index, each followed by a comma) one row `head j,value`
    per coordinate j of the matching row of paths, an array whose last
    axis holds the coordinates and whose other axes run in head order.
    Byte for byte what _csv_text writes for those rows: every field here
    needs no quoting and each value is written as its repr."""
    n = paths.shape[-1]
    values = paths.reshape(-1).tolist()
    pieces = [None] * (3 * len(values))
    pieces[0::3] = [f"\n{head}" for head in heads for _ in range(n)]
    pieces[1::3] = [f"{j}," for j in range(n)] * len(heads)
    pieces[2::3] = map(repr, values)
    return ",".join(header) + "".join(pieces) + "\n"


def _report_text(profile, fmt):
    """A CutoffProfile as CSV text (fields in CutoffProfile.COLUMNS order)
    or JSON text (rows plus prediction brackets and critical times)."""
    if fmt == "csv":
        fields = attrgetter(*CutoffProfile.COLUMNS)
        return _csv_text(CutoffProfile.COLUMNS, list(map(fields, profile.rows)))
    if fmt == "json":
        doc = {
            "route": profile.route,
            "meta": profile.meta,
            "critical_times": {str(k): v for k, v in profile.critical_times.items()},
            "predictions": {
                str(n): {
                    kind: {
                        "c_lower": p.c_lower,
                        "c_upper": p.c_upper,
                        "source": p.source,
                        "flagged": p.flagged,
                        "flag_reason": p.flag_reason,
                    }
                    for kind, p in preds.items()
                }
                for n, preds in profile.predictions.items()
            },
            "rows": [r.__dict__ for r in profile.rows],
        }
        try:
            return json.dumps(doc, indent=2, allow_nan=True) + "\n"
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"profile not serializable: {exc}")
    raise SerializationError(f"unknown report format {fmt!r}")


def read_profile(path):
    """Load the profile.json that run writes for a cutoff-profile config
    with format = json back into a CutoffProfile."""
    with open(path) as fh:
        doc = json.load(fh)
    from .cutoff import CutoffPrediction

    rows = [ProfileRow(**r) for r in doc["rows"]]
    preds = {
        int(n): {
            kind: CutoffPrediction(
                dist_kind=kind,
                c_lower=p["c_lower"],
                c_upper=p["c_upper"],
                source=p["source"],
                flagged=p["flagged"],
                flag_reason=p["flag_reason"],
            )
            for kind, p in kinds.items()
        }
        for n, kinds in doc["predictions"].items()
    }
    return CutoffProfile(
        rows=rows,
        predictions=preds,
        critical_times={int(k): v for k, v in doc["critical_times"].items()},
        route=doc["route"],
        meta=doc["meta"],
    )


def _model_from_config(config, need_alpha=False):
    n = config.get("n")
    if n is None or isinstance(n, list):
        raise ValidationError("this experiment needs a single integer n")
    if config.get("alpha") is not None:
        beta = config.get("beta") if config.get("beta") is not None else 1.0
        return ModelParams(int(n), float(config["alpha"]), float(beta)), None
    if config.get("m") is not None:
        mp = MatrixParams.bru(int(n), int(config["m"]))
        return mp.induced_model(), mp
    if need_alpha:
        raise ValidationError("config must provide alpha (with beta) or m")
    raise ValidationError("config must provide alpha or m")


def _start(config, params, positive):
    """The config's start state from its x0_preset; returns (x0, notes,
    generator), the generator left where the draw ended.

    The draw runs on the seed's spawn key (900, 0), the first child of
    stream 900.  Every replica stream RngStream(seed, k) has the one-part
    key (k,), so no replica count reaches the start's stream."""
    from .equilibrium import build_x0

    seq = np.random.SeedSequence(int(config.get("seed") or 0), spawn_key=(900, 0))
    gen = np.random.Generator(np.random.PCG64(seq))
    x0, note = build_x0(config.get("x0_preset", "zero"), params, gen, positive=positive)
    return x0, [note] if note else [], gen


def _times(config, default):
    """The config's grid times as a float array; an omitted or empty value
    (list or array) takes the default."""
    times = np.asarray(() if config.get("times") is None else config["times"], dtype=float)
    return times if times.size else np.asarray(default, dtype=float)


def _run_simulate(config):
    params, mp = _model_from_config(config)
    times = _times(config, [1.0])
    replicas = int(config.get("replicas") or 1)
    seed = int(config.get("seed") or 0)
    x0, notes, _ = _start(config, params, positive=mp is None)
    if mp is not None:
        m0 = np.zeros((mp.n, mp.m))
        np.fill_diagonal(m0, np.sqrt(mp.m * x0.as_array()))
        sources = [RngStream(seed, rep) for rep in range(replicas)]
        out = matrix_dl_path(np.broadcast_to(m0, (replicas, mp.n, mp.m)), times, mp, sources,
                             canonical=True)
    else:
        out = dl_paths_batch(x0, times, params, RngStream(seed, 0), replicas=replicas)
    heads = [f"{rep},{t!r}," for rep in range(out.shape[1]) for t in times.tolist()]
    text = _path_table_text(("replica", "time", "coord_index", "value"), heads,
                            out.transpose(1, 0, 2))
    return [("paths.csv", text)], notes


def _run_distance(config):
    from .coupling import wg_decay_estimate

    params, _ = _model_from_config(config)
    times = _times(config, np.arange(0.5, 6.1, 0.5))
    replicas = int(config.get("replicas") or 200)
    x0, notes, _ = _start(config, params, positive=True)
    curve = wg_decay_estimate(x0, times, params, replicas,
                              RngStream(int(config.get("seed") or 0), 0))
    header = ("t", "value", "stderr", "envelope", "floor")
    rows = [[r[key] for key in header] for r in curve.rows()]
    return [("wg_decay.csv", _csv_text(header, rows))], notes


def _run_cutoff_profile(config):
    profile = run_cutoff_profile(config)
    fmt = config.get("format") or "csv"
    return [(f"profile.{fmt}", _report_text(profile, fmt))], profile.meta.get("fallbacks", [])


def _run_check_cd(config):
    from .geometry import cd_certificate

    params, _ = _model_from_config(config, need_alpha=True)
    trials = int(config.get("replicas") or 1000)
    report = cd_certificate(params, 0.5, trials, RngStream(int(config.get("seed") or 0), 0))
    return [("cd_report.json", report.to_json() + "\n")], []


def _run_couple(config):
    from .coupling import run_coupled_batch
    from .equilibrium import sample_equilibrium_batch

    params, _ = _model_from_config(config)
    times = _times(config, np.arange(0.5, 6.1, 0.5))
    replicas = int(config.get("replicas") or 100)
    x0, notes, gen = _start(config, params, positive=True)
    y0 = sample_equilibrium_batch(params, gen, 1)[0]
    sa, sb, coal = run_coupled_batch(x0, y0, times, params,
                                     RngStream(int(config.get("seed") or 0), 0),
                                     replicas=replicas, kind="mirror")
    heads = [f"{rep},{t!r},{leg}," for rep in range(replicas) for leg in ("x", "y")
             for t in times.tolist()]
    text = _path_table_text(("replica", "time", "leg", "coord_index", "value"), heads,
                            np.stack((sa, sb)).transpose(2, 0, 1, 3))
    finite = np.isfinite(coal)
    summary = {
        "replicas": replicas,
        "coalesced_fraction": float(np.mean(finite)),
        "mean_coalesce_time": float(np.mean(coal[finite])) if np.any(finite) else None,
        "median_coalesce_time": float(np.median(coal[finite])) if np.any(finite) else None,
        "horizon": float(times[-1]),
    }
    return [
        ("coupled_paths.csv", text),
        ("coupling_summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n"),
    ], notes


def _run_ou_formulas(config):
    n = config.get("n")
    m = config.get("m")
    if n is None or m is None or isinstance(n, list):
        raise ValidationError("ou-formulas needs integer n and m")
    mp = MatrixParams.bru(int(n), int(m))
    params = mp.induced_model()
    x0, notes, _ = _start(config, params, positive=False)
    z0_sq = float(mp.m * observable_phi(x0, params).phi_raw)
    ou = OUParams(int(n), int(m), mp.kappa, mp.gamma, z0_norm_sq=z0_sq)
    times = _times(config, np.arange(0.5, 6.1, 0.5))
    rows = []
    for t in times:
        vals = ou_closed_form_distances(ou, float(t))
        rows += [(float(t), kind, vals[kind].value) for kind in ("KL", "L2", "W2")]
    return [("ou_distances.csv", _csv_text(("t", "kind", "value"), rows))], notes


_EXPERIMENTS = {
    "simulate": _run_simulate,
    "distance": _run_distance,
    "cutoff-profile": _run_cutoff_profile,
    "check-cd": _run_check_cd,
    "couple": _run_couple,
    "ou-formulas": _run_ou_formulas,
}

_MODES = tuple(_EXPERIMENTS)


def run(config):
    """Dispatch a validated config to its experiment and write its artifacts
    in order.

    Returns the RunManifest (also written to out_dir/manifest.json), with
    the sha256 of each artifact's bytes.  Its output paths are relative to
    out_dir, so the manifest's bytes do not depend on where out_dir sits.
    The experiment writes nothing; if a write fails, the artifacts already
    written are removed before the error propagates.
    """
    mode = config.get("mode")
    if mode not in _EXPERIMENTS:
        raise ValidationError(f"config needs a mode among {', '.join(_MODES)}")
    if config.get("seed") is not None and config["seed"] < 0:
        raise ValidationError(f"seed must be nonnegative, got {config['seed']}")
    if config.get("replicas") is not None and config["replicas"] < 1:
        raise ValidationError(f"replicas must be at least 1, got {config['replicas']}")
    out_dir = config.get("out_dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    artifacts, fallbacks = _EXPERIMENTS[mode](config)
    outputs = []
    try:
        for name, text in artifacts:
            data = text.encode("utf-8")
            _atomic_write(os.path.join(out_dir, name), data)
            outputs.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})
    except BaseException:
        for out in outputs:
            path = os.path.join(out_dir, out["path"])
            if os.path.exists(path):
                os.unlink(path)
        raise
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = RunManifest(
        config_hash=config_digest(config),
        seed=int(config.get("seed") or 0),
        mode=mode,
        artifact_version=__version__,
        started=started,
        finished=finished,
        outputs=outputs,
        fallbacks=fallbacks,
    )
    _atomic_write(os.path.join(out_dir, "manifest.json"), manifest.to_json())
    return manifest


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dyson-laguerre",
        description="Simulation and analysis experiments for interacting square-root diffusions.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in _MODES:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--seed", type=int, help="overrides the config seed")
        p.add_argument("--out", help="output directory (overrides out_dir)")
        p.add_argument("--format", choices=("csv", "json"), help="report format")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.config:
            with open(args.config) as fh:
                config = parse_config(fh.read())
        else:
            config = dict(_DEFAULTS)
        config["mode"] = args.mode
        if args.seed is not None:
            config["seed"] = args.seed
        if args.out is not None:
            config["out_dir"] = args.out
        if args.format is not None:
            config["format"] = args.format
        manifest = run(config)
    except (OSError, SerializationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CollisionError, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except DysonLaguerreError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for out in manifest.outputs:
        path = os.path.join(config.get("out_dir") or ".", out["path"])
        print(f"wrote {path}  sha256={out['sha256'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
