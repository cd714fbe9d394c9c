import subprocess
import sys

import numpy as np
import pytest

from dyson_laguerre import _kernels
from dyson_laguerre._kernels import _ref


def _random_states(rng, rows, n):
    x = np.sort(rng.gamma(3.0, 1.0, (rows, n)), axis=1)
    x += np.arange(n) * 1e-3  # keep gaps away from zero
    return x


def test_python_backend_always_available():
    assert "python" in _kernels.available_backends()


def test_backends_bit_identical():
    if "cython" not in _kernels.available_backends():
        pytest.skip("compiled backend not built")
    rng = np.random.default_rng(7)
    x = _random_states(rng, 40, 6)
    y = 2.0 * np.sqrt(x)
    saved = _kernels.backend_name()
    try:
        _kernels.set_backend("python")
        bx_py = _kernels.dl_drift_batch(x, 5.5, 2.0)
        by_py = _kernels.edl_drift_batch(y, 5.5, 2.0)
        _kernels.set_backend("cython")
        bx_cy = _kernels.dl_drift_batch(x, 5.5, 2.0)
        by_cy = _kernels.edl_drift_batch(y, 5.5, 2.0)
    finally:
        _kernels.set_backend(saved)
    # identical floating point operation order, so exact equality
    assert np.array_equal(bx_py, bx_cy)
    assert np.array_equal(by_py, by_cy)


def test_set_backend_rejects_unknown():
    with pytest.raises(ValueError):
        _kernels.set_backend("fortran")


def test_out_argument_reused():
    rng = np.random.default_rng(1)
    x = _random_states(rng, 5, 3)
    out = np.empty_like(x)
    res = _kernels.dl_drift_batch(x, 4.0, 1.0, out=out)
    assert res is out


def test_env_var_forces_python():
    code = (
        "import os; os.environ['DL_KERNEL_BACKEND']='python'; "
        "from dyson_laguerre import _kernels; print(_kernels.backend_name())"
    )
    got = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert got.stdout.strip() == "python"


def test_env_var_unknown_fails_import():
    code = (
        "import os; os.environ['DL_KERNEL_BACKEND']='nope'; "
        "import dyson_laguerre"
    )
    got = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert got.returncode != 0
    assert "DL_KERNEL_BACKEND" in got.stderr


def test_drift_batch_matches_single():
    from dyson_laguerre import ModelParams, ParticleState, dl_drift

    params = ModelParams(4, 6.0, 2.0)
    rng = np.random.default_rng(9)
    x = _random_states(rng, 8, 4)
    batch = _kernels.dl_drift_batch(x, params.alpha, params.beta)
    for r in range(8):
        assert np.allclose(batch[r], dl_drift(ParticleState(x[r]), params), atol=1e-14)


# Frozen references: the numpy kernels as they stood with a masked divide per
# partner j.  The live kernels evaluate the j = i term as 0/1 instead, which
# must leave every output bit as it was.
def _masked_dl_drift_batch(x, alpha, beta):
    r, n = x.shape
    base = alpha - x
    if beta == 0.0 or n == 1:
        return base
    acc = np.zeros_like(x)
    mask = np.ones(n, dtype=bool)
    ratio = np.empty_like(x)
    for j in range(n):
        xj = x[:, j : j + 1]
        mask[:] = True
        mask[j] = False
        ratio.fill(0.0)
        np.divide(x + xj, x - xj, out=ratio, where=mask[None, :])
        acc += ratio
    np.multiply(acc, 0.5 * beta, out=acc)
    return base + acc


def _masked_edl_drift_batch(y, alpha, beta):
    r, n = y.shape
    base = (2.0 * alpha - 1.0) / y - y * 0.5
    if beta == 0.0 or n == 1:
        return base
    s = y * y
    acc = np.zeros_like(y)
    mask = np.ones(n, dtype=bool)
    ratio = np.empty_like(y)
    for j in range(n):
        sj = s[:, j : j + 1]
        mask[:] = True
        mask[j] = False
        ratio.fill(0.0)
        np.divide(s + sj, s - sj, out=ratio, where=mask[None, :])
        acc += ratio
    np.multiply(acc, beta, out=acc)
    np.divide(acc, y, out=acc)
    return base + acc


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _kernel_inputs(rng, rows, n):
    x = _random_states(rng, rows, n)
    if rows > 1 and n > 1:
        x[0, 1] = x[0, 0]  # a collision: the pair term is +-inf, the row NaN or inf
        x[-1, -1] = x[-1, 0] * (1.0 + 1e-15)  # a near-collision
    return x


@pytest.mark.parametrize("rows", [1, 7, 500])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_drift_kernels_match_masked_reference_bitwise(rows, n, beta):
    rng = np.random.default_rng(1000 * rows + 10 * n + int(beta))
    x = _kernel_inputs(rng, rows, n)
    y = 2.0 * np.sqrt(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert _same_bits(_ref.dl_drift_batch(x, 5.5, beta), _masked_dl_drift_batch(x, 5.5, beta))
        assert _same_bits(
            _ref.edl_drift_batch(y, 5.5, beta), _masked_edl_drift_batch(y, 5.5, beta)
        )
        out = np.empty_like(x)
        assert _ref.dl_drift_batch(x, 5.5, beta, out=out) is out
        assert _same_bits(out, _masked_dl_drift_batch(x, 5.5, beta))
        out = np.empty_like(y)
        assert _ref.edl_drift_batch(y, 5.5, beta, out=out) is out
        assert _same_bits(out, _masked_edl_drift_batch(y, 5.5, beta))
