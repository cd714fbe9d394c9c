import numpy as np
import pytest

from dyson_laguerre import _kernels


def _random_states(rng, rows, n):
    x = np.sort(rng.gamma(3.0, 1.0, (rows, n)), axis=1)
    x += np.arange(n) * 1e-3  # keep gaps away from zero
    return x


def test_drift_batch_matches_single():
    from dyson_laguerre import ModelParams, dl_drift

    params = ModelParams(4, 6.0, 2.0)
    rng = np.random.default_rng(9)
    x = _random_states(rng, 8, 4)
    batch = _kernels.dl_drift_batch(x, params.alpha, params.beta)
    for r in range(8):
        assert np.allclose(batch[r], dl_drift(x[r], params), atol=1e-14)


# Frozen references: the numpy kernels as they stood with a masked divide per
# partner j.  The live kernels divide each pair once in an (n, n, r) stack, or
# above the stack size limit evaluate the j = i term as 0/1; either way every
# output bit must stay as it was.
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
    if rows > 2:
        x[1 : rows // 2] = rng.permuted(x[1 : rows // 2], axis=1)  # unordered rows
    return x


# rows * n * n straddles _kernels.STACK_LIMIT, so both forms of the pair sum run
@pytest.mark.parametrize("rows", [1, 7, 500, 1000, 4000])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_drift_kernels_match_masked_reference_bitwise(rows, n, beta):
    rng = np.random.default_rng(1000 * rows + 10 * n + int(beta))
    x = _kernel_inputs(rng, rows, n)
    y = 2.0 * np.sqrt(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert _same_bits(
            _kernels.dl_drift_batch(x, 5.5, beta), _masked_dl_drift_batch(x, 5.5, beta)
        )
        assert _same_bits(
            _kernels.edl_drift_batch(y, 5.5, beta), _masked_edl_drift_batch(y, 5.5, beta)
        )
