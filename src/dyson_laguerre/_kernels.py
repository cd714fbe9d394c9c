"""The batched drift kernels of the Euler step.

Both drifts share one interaction sum, sum_{j != i} (s_i + s_j)/(s_i - s_j).
For each coordinate i it is accumulated over the partners j = 0..n-1 in
order, starting from +0.0, with +0.0 added at j = i.  That order fixes every
output bit; the tests hold it against frozen copies of earlier kernels.

Small batches divide each pair i < j once.  With
q_ij = (s_i + s_j)/(s_i - s_j), the term of coordinate j is
(s_j + s_i)/(s_j - s_i) = -q_ij exactly in IEEE arithmetic, because the sum
commutes and s_j - s_i = -(s_i - s_j).  The one exception is an exact
collision s_i == s_j: both differences are +0.0 there, so the term of j is
q_ij itself.  The terms go into an (n, n, r) stack, the term of coordinate i
and partner j at [j, i], with a zero diagonal.  np.add.reduce over axis 0
adds the rows of the stack one after another, so every output element sees
the additions of the partner loop, in j order.

The stack form makes a fixed number of numpy calls, where the partner loop
makes six per partner, but it allocates about 2.5 n*n*r doubles per call.
Above STACK_LIMIT doubles of stack, freeing and re-allocating that much
memory on every call costs page faults, and the partner loop is faster; the
README's Performance section has the measurements.  Both forms give the
same bits for every finite input.
"""

import functools

import numpy as np

# Largest stack, n*n*r doubles, that _pair_sum builds.
STACK_LIMIT = 1 << 15


def backend_name():
    """Name of the kernel source, recorded in benchmark fingerprints."""
    return "python"


@functools.lru_cache(maxsize=None)
def _pair_layout(n):
    """Pairs i < j of n coordinates, and the flat stack rows j*n + i and i*n + j."""
    i, j = np.triu_indices(n, 1)
    layout = (i, j, j * n + i, i * n + j)
    for a in layout:
        a.setflags(write=False)
    return layout


def _pair_sum(s):
    """sum_{j != i} (s_i + s_j)/(s_i - s_j) for the rows of s.T, as (n, r).

    s: (n, r) array, one column per replica.  The sum runs over j = 0..n-1
    in order, starting from +0.0, with the j = i term +0.0.
    """
    n, r = s.shape
    if n * n * r > STACK_LIMIT:
        return _pair_sum_loop(s)
    i, j, at_ji, at_ij = _pair_layout(n)
    a = s[i]
    b = s[j]
    q = a + b
    np.subtract(a, b, out=a)
    np.divide(q, a, out=q)
    stack = np.zeros((n * n, r))
    stack[at_ji] = q
    np.negative(q, out=b)
    if not a.all():
        np.copyto(b, q, where=a == 0.0)  # exact collisions keep the sign of q
    stack[at_ij] = b
    return np.add.reduce(stack.reshape(n, n, r), axis=0, initial=0.0)


def _pair_sum_loop(s):
    """_pair_sum one partner j at a time, with the j = i term evaluated as 0/1."""
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


def dl_drift_batch(x, alpha, beta):
    """Drift of the canonical system for a batch of states.

    x: array (r, n) of ordered nonnegative coordinates, one row per replica.
    Returns (r, n): alpha - x_i + (beta/2) sum_{j != i} (x_i + x_j)/(x_i - x_j).
    No domain checks; callers validate.
    """
    x = np.asarray(x, dtype=float)
    if beta == 0.0 or x.shape[1] == 1:
        return alpha - x
    xt = x.T.copy()
    acc = _pair_sum(xt)
    np.multiply(acc, 0.5 * beta, out=acc)
    out = np.empty_like(x)
    np.add(alpha - xt, acc, out=out.T)
    return out


def edl_drift_batch(y, alpha, beta):
    """Drift of the square-root system for a batch of y states.

    y: array (r, n) of strictly positive coordinates.
    Returns (r, n):
        (2*alpha - 1)/y_i - y_i/2 + beta * (sum_{j != i} (y_i^2 + y_j^2)/(y_i^2 - y_j^2)) / y_i.
    """
    y = np.asarray(y, dtype=float)
    two_am1 = 2.0 * alpha - 1.0
    if beta == 0.0 or y.shape[1] == 1:
        return two_am1 / y - y * 0.5
    yt = y.T.copy()
    acc = _pair_sum(yt * yt)
    np.multiply(acc, beta, out=acc)
    np.divide(acc, yt, out=acc)
    out = np.empty_like(y)
    np.add(two_am1 / yt - yt * 0.5, acc, out=out.T)
    return out
