"""Per-layer tracing from outside the package.

Each layer is a function of the package.  While an op is traced, every
module attribute of `dyson_laguerre` that holds that function object is
replaced by a wrapper, so the wrapper sits at the name each caller looks up
(`cutoff.dl_paths_batch`, `coupling._propose_batch`, ...).  A wrapper records
one span per call (name, start, end, parent span) in the tracer of the op,
which carries the op id, and adds the layer's counters; `Tracer.uninstall`
puts every original back.

A layer's self time is its span time minus the time of its direct child
spans, so the self times of all spans in an op add up to the time of the
root spans, the `cli.run` calls, which is what the op's wall time measures.
"""

from collections import defaultdict
from dataclasses import dataclass
import functools
import importlib
import sys
import time


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _drift_counts(args, kwargs, result):
    r, n = _arg(args, kwargs, 0, "y").shape
    # computed, not measured: the input and output arrays a kernel must move
    return (("kernels.edl_drift_batch.pairs", r * n * (n - 1)),
            ("kernels.edl_drift_batch.bytes", 16 * r * n))


def _propose_counts(args, kwargs, result):
    if result is None:
        return ()
    ok = result[1]
    return (("simulate._propose_batch.rows", ok.size),
            ("simulate._propose_batch.rows_rejected", int(ok.size - ok.sum())))


def _pair_counts(args, kwargs, result):
    return (("coupling.pair_halvings", int(_arg(args, kwargs, 5, "depth") > 0)),)


def _equilibrium_counts(args, kwargs, result):
    return (("equilibrium.sample_equilibrium_batch.rows", _arg(args, kwargs, 2, "size")),)


def _cost_counts(args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    ra, n = a.atoms.shape
    # computed: the (ra, rb, n) float64 difference tensor
    return (("transport._intrinsic_cost.bytes", 8 * ra * b.atoms.shape[0] * n),)


def _kl_counts(args, kwargs, result):
    return (("transport.kl_projected_estimate.samples", len(_arg(args, kwargs, 0, "samples"))),)


def _cd_counts(args, kwargs, result):
    return (("geometry.cd_certificate.trials", int(_arg(args, kwargs, 2, "trials"))),)


def _csv_counts(args, kwargs, result):
    return () if result is None else (("cli._csv_text.rows", result.count("\n") - 1),)


def _write_counts(args, kwargs, result):
    data = _arg(args, kwargs, 1, "data")
    size = len(data.encode("utf-8")) if isinstance(data, str) else len(data)
    return (("cli._atomic_write.bytes", size),)


@dataclass(frozen=True)
class Layer:
    """One traced function: metric prefix `name`, the module and attribute
    that define it, its counters, and which end-to-end metric it should
    move on which workload."""

    name: str
    module: str
    attr: str
    moves: str
    counters: object = None
    counter_units: tuple = ()
    samplers: bool = False   # wrap the values of a dict of samplers instead


_DL = "dyson_laguerre."
_SDE = "wall_s on sde_profile and transport_coupling"

LAYERS = (
    Layer("kernels.edl_drift_batch", _DL + "_kernels", "edl_drift_batch",
          _SDE + "; 0 calls on matrix_geometry", _drift_counts,
          (("pairs", "count", "lower"), ("bytes", "B_computed", "lower"))),
    Layer("simulate.dl_paths_batch", _DL + "simulate", "dl_paths_batch",
          "wall_s and fail_frac on sde_profile; wall_s on transport_coupling"),
    Layer("simulate._propose_batch", _DL + "simulate", "_propose_batch",
          "wall_s and fail_frac on sde_profile; wall_s on transport_coupling",
          _propose_counts, (("rows", "count", "lower"), ("rows_rejected", "count", "lower"))),
    Layer("simulate.matrix_dl_path", _DL + "simulate", "matrix_dl_path", "wall_s on matrix_geometry"),
    Layer("simulate.spectral_projection", _DL + "simulate", "spectral_projection",
          "wall_s on matrix_geometry"),
    Layer("simulate.rect_ou_transition", _DL + "simulate", "rect_ou_transition",
          "wall_s on matrix_geometry"),
    Layer("simulate.cir_exact_transition", _DL + "simulate", "cir_exact_transition",
          "wall_s on matrix_geometry"),
    Layer("equilibrium.sample_equilibrium_batch", _DL + "equilibrium",
          "sample_equilibrium_batch", "wall_s on transport_coupling", _equilibrium_counts,
          (("rows", "count", "lower"),)),
    Layer("equilibrium.sampler", _DL + "equilibrium", "_SAMPLERS",
          "wall_s on transport_coupling; calls above sample_equilibrium_batch calls are redraws",
          samplers=True),
    Layer("transport.wasserstein_intrinsic", _DL + "transport", "wasserstein_intrinsic",
          "wall_s and peak_rss_mb on transport_coupling"),
    Layer("transport._intrinsic_cost", _DL + "transport", "_intrinsic_cost",
          "wall_s and peak_rss_mb on transport_coupling", _cost_counts,
          (("bytes", "B_computed", "lower"),)),
    Layer("transport.linear_sum_assignment", _DL + "transport", "linear_sum_assignment",
          "wall_s on transport_coupling"),
    Layer("transport.kl_projected_estimate", _DL + "transport", "kl_projected_estimate",
          "wall_s on matrix_geometry, a little on sde_profile", _kl_counts,
          (("samples", "count", "lower"),)),
    Layer("transport.tv_threshold_witness", _DL + "transport", "tv_threshold_witness",
          "wall_s on matrix_geometry, a little on sde_profile"),
    Layer("transport.gaussian_tv", _DL + "transport", "gaussian_tv",
          "wall_s on matrix_geometry"),
    Layer("coupling.run_coupled_batch", _DL + "coupling", "run_coupled_batch",
          "wall_s and fail_frac on transport_coupling"),
    Layer("coupling._advance_pairs", _DL + "coupling", "_advance_pairs",
          "wall_s and fail_frac on transport_coupling", _pair_counts),
    Layer("coupling._mirror_second_noise", _DL + "coupling", "_mirror_second_noise",
          "wall_s on transport_coupling"),
    Layer("coupling.wg_decay_estimate", _DL + "coupling", "wg_decay_estimate",
          "wall_s on transport_coupling"),
    Layer("coupling._w_with_bootstrap", _DL + "coupling", "_w_with_bootstrap",
          "wall_s on transport_coupling"),
    Layer("geometry.cd_certificate", _DL + "geometry", "cd_certificate",
          "wall_s on matrix_geometry", _cd_counts, (("trials", "count", "lower"),)),
    Layer("geometry.gamma2_explicit", _DL + "geometry", "gamma2_explicit", "wall_s on matrix_geometry"),
    Layer("geometry.carre_du_champ", _DL + "geometry", "carre_du_champ", "wall_s on matrix_geometry"),
    Layer("geometry.random_test_function", _DL + "geometry", "random_test_function",
          "wall_s on matrix_geometry"),
    Layer("cutoff.run_cutoff_profile", _DL + "cutoff", "run_cutoff_profile",
          "wall_s on sde_profile and matrix_geometry"),
    Layer("cli.run", _DL + "cli", "run", "wall_s on every workload; root span of each op"),
    Layer("cli._csv_text", _DL + "cli", "_csv_text",
          "wall_s on matrix_geometry and transport_coupling", _csv_counts,
          (("rows", "count", "lower"),)),
    Layer("cli._atomic_write", _DL + "cli", "_atomic_write",
          "wall_s on matrix_geometry and transport_coupling", _write_counts,
          (("bytes", "B", "lower"),)),
)

# Metrics beyond calls, time, self time and the per-layer counters above.
EXTRA = (
    ("simulate.accept_ratio", "ratio", "higher",
     "accepted / proposed rows of _propose_batch; 1 when none were proposed"),
    ("coupling.pair_halvings", "count", "lower",
     "recursive _advance_pairs calls, i.e. calls minus top-level steps"),
    ("trace.overhead_s", "s", "lower", "traced minus untraced op wall time, median per op"),
    ("trace.accounted_frac", "ratio", "higher",
     "smallest share of a traced op's wall time covered by span self times"),
)


def per_layer_metrics():
    """(name, unit, better) of every metric a traced run reports, in order."""
    out = []
    for layer in LAYERS:
        out += [(layer.name + ".calls", "count", "lower"),
                (layer.name + ".s", "s", "lower"),
                (layer.name + ".self_s", "s", "lower")]
        out += [(f"{layer.name}.{suffix}", unit, better)
                for suffix, unit, better in layer.counter_units]
    out += [(name, unit, better) for name, unit, better, _ in EXTRA]
    return out


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dyson_laguerre" or name.startswith(_DL))]


class Tracer:
    """Spans and counters of one traced op."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []          # [name, start, end, parent index, outermost of its name]
        self.counts = defaultdict(float)
        self.missing = []
        self._stack = []
        self._active = defaultdict(int)
        self._patched = []       # (owner, key, original, is_mapping)

    def _wrap(self, name, fn, counters):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] == 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = clock()
                active[name] -= 1
                stack.pop()
                if counters is not None:
                    for key, value in counters(args, kwargs, result):
                        counts[key] += value

        traced.bench_traced = True
        return traced

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(layer.module)
            original = getattr(module, layer.attr, None)
            if original is None:
                self.missing.append(layer.name)
                continue
            if layer.samplers:
                for key, fn in list(original.items()):
                    original[key] = self._wrap(layer.name, fn, layer.counters)
                    self._patched.append((original, key, fn, True))
                continue
            wrapper = self._wrap(layer.name, original, layer.counters)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original, False))

    def uninstall(self):
        for owner, key, original, is_mapping in reversed(self._patched):
            if is_mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()
        leftover = [f"{m.__name__}.{a}" for m in _package_modules() for a, v in vars(m).items()
                    if getattr(v, "bench_traced", False)]
        leftover += [f"sampler {k}" for layer in LAYERS if layer.samplers
                     for k, v in getattr(importlib.import_module(layer.module),
                                         layer.attr, {}).items()
                     if getattr(v, "bench_traced", False)]
        if leftover:
            raise RuntimeError(f"tracing left wrapped names behind: {leftover}")

    def summary(self):
        """Per-layer calls, time (outermost spans only) and self time."""
        durations = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for k, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durations[k]
        stats = defaultdict(float)
        for k, (name, _, _, _, outermost) in enumerate(self.spans):
            stats[name + ".calls"] += 1
            stats[name + ".self_s"] += durations[k] - child[k]
            if outermost:
                stats[name + ".s"] += durations[k]
        return stats
