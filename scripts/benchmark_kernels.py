"""Benchmark the compiled drift kernels against the numpy reference.

Times the batched DL and EDL drift evaluations for a grid of problem sizes
on every available backend, then times a full integrator run, and checks
that the backends agree bit for bit on a random batch.

Usage:
    python3 scripts/benchmark_kernels.py [--sizes 16x64,128x16,...] [--repeat 5]
"""

import argparse
import time

import numpy as np

from dyson_laguerre import ModelParams, ParticleState, RngStream
from dyson_laguerre import _kernels
from dyson_laguerre.simulate import dl_paths_batch


def _batch(rng, replicas, n):
    x = rng.gamma(3.0, 1.0, (replicas, n))
    x.sort(axis=1)
    return x


def time_call(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--sizes",
        default="160x4,500x4,500x8,1000x4,1000x16,1000x64,200x128",
        help="comma list of replicasxN batch shapes; the first three are the "
        "shapes the bench/ workloads run",
    )
    ap.add_argument("--repeat", type=int, default=5, help="timing repetitions, best kept")
    args = ap.parse_args()
    sizes = []
    for tok in args.sizes.split(","):
        r, n = tok.lower().split("x")
        sizes.append((int(r), int(n)))

    backends = _kernels.available_backends()
    print(f"backends available: {', '.join(backends)}")
    if "cython" not in backends:
        print("compiled extension not importable, timing the numpy reference only")

    rng = np.random.default_rng(0)
    check = _batch(rng, 64, 8)
    results = {}
    for name in backends:
        _kernels.set_backend(name)
        results[name] = _kernels.dl_drift_batch(check, 5.0, 1.0)
    if len(backends) == 2 and not np.array_equal(results["python"], results["cython"]):
        raise SystemExit("backend outputs differ; bit-identity contract broken")
    if len(backends) == 2:
        print("bit-identity check on a 64x8 batch: ok")
    print()

    header = f"{'kernel':<10} {'batch':<10}" + "".join(f"{b:>12}" for b in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    alpha = 10.0
    for kernel_name, kernel in (("dl", _kernels.dl_drift_batch), ("edl", _kernels.edl_drift_batch)):
        for replicas, n in sizes:
            x = _batch(rng, replicas, n)
            if kernel_name == "edl":
                x = 2.0 * np.sqrt(x)
            row = f"{kernel_name:<10} {f'{replicas}x{n}':<10}"
            times = {}
            for name in backends:
                _kernels.set_backend(name)
                times[name] = time_call(kernel, x, alpha, 1.0, repeat=args.repeat)
                row += f"{times[name] * 1e3:>10.2f}ms"
            if len(backends) == 2:
                row += f"{times['python'] / times['cython']:>9.1f}x"
            print(row)

    print()
    params = ModelParams(8, 6.0, 1.0)
    x0 = ParticleState(np.arange(1.0, 9.0))
    for name in backends:
        _kernels.set_backend(name)
        t = time_call(
            lambda: dl_paths_batch((x0, 400), [1.0], params, RngStream(7, 0), dt=1e-3),
            repeat=max(2, args.repeat // 2),
        )
        print(f"integrator 400 replicas, n=8, t=1.0, dt=1e-3 [{name:>7}]: {t:.2f}s")
    _kernels.set_backend(_kernels._default_backend())


if __name__ == "__main__":
    main()
