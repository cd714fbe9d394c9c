"""Reference numpy implementation of the hot drift kernels.

The compiled backend in _core.pyx mirrors these routines operation for
operation.  To keep the two backends bit-identical the interaction sums are
accumulated coordinate-sequentially (a Python loop over the partner index j,
vectorized over replicas and over i), so both backends perform the same
floating-point additions in the same order.

The j = i term is not skipped but evaluated as 0/1, which adds +0.0 at the
same place in the sum where the compiled loop skips it; the divide is
unmasked, because numpy's masked ufunc loop is several times slower.  The
loop works on transposed (n, r) buffers so that each partner j is a
contiguous row broadcast over the coordinates i; the arithmetic per element
is unchanged.  Keep any edits synchronized with _core.pyx.
"""

import numpy as np


def _pair_sum(s):
    """sum_{j != i} (s_i + s_j)/(s_i - s_j) for the rows of s.T, as (n, r).

    s: (n, r) array, one column per replica.  The sum runs over j = 0..n-1
    in order, starting from +0.0, with the j = i term evaluated as 0/1.
    """
    acc = np.zeros_like(s)
    num = np.empty_like(s)
    den = np.empty_like(s)
    for j in range(s.shape[0]):
        sj = s[j]
        np.add(s, sj, out=num)
        np.subtract(s, sj, out=den)
        num[j] = 0.0
        den[j] = 1.0
        np.divide(num, den, out=num)
        acc += num
    return acc


def dl_drift_batch(x, alpha, beta, out=None):
    """Drift of the canonical system for a batch of states.

    x: array (r, n) of ordered nonnegative coordinates, one row per replica.
    Returns (r, n): alpha - x_i + (beta/2) sum_{j != i} (x_i + x_j)/(x_i - x_j).
    No domain checks; callers validate.
    """
    x = np.asarray(x, dtype=float)
    r, n = x.shape
    if out is None:
        out = np.empty_like(x)
    if beta == 0.0 or n == 1:
        np.subtract(alpha, x, out=out)
        return out
    xt = x.T.copy()
    acc = _pair_sum(xt)
    np.multiply(acc, 0.5 * beta, out=acc)
    np.add(alpha - xt, acc, out=out.T)
    return out


def edl_drift_batch(y, alpha, beta, out=None):
    """Drift of the square-root system for a batch of y states.

    y: array (r, n) of strictly positive coordinates.
    Returns (r, n):
        (2*alpha - 1)/y_i - y_i/2 + beta * (sum_{j != i} (y_i^2 + y_j^2)/(y_i^2 - y_j^2)) / y_i.
    """
    y = np.asarray(y, dtype=float)
    r, n = y.shape
    if out is None:
        out = np.empty_like(y)
    two_am1 = 2.0 * alpha - 1.0
    if beta == 0.0 or n == 1:
        np.subtract(two_am1 / y, y * 0.5, out=out)
        return out
    yt = y.T.copy()
    acc = _pair_sum(yt * yt)
    np.multiply(acc, beta, out=acc)
    np.divide(acc, yt, out=acc)
    np.add(two_am1 / yt - yt * 0.5, acc, out=out.T)
    return out
