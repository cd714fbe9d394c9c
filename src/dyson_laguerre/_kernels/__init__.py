"""The batched drift kernels of the Euler step.

There is one kernel source, the numpy routines of _ref.  They add each
coordinate's pair terms over its partners in index order, which fixes the
output bits.  Small batches divide each pair once and large ones loop over
the partners; both forms give the same bits, as the _ref docstring argues.
"""

from ._ref import dl_drift_batch, edl_drift_batch


def backend_name():
    """Name of the kernel source, recorded in benchmark fingerprints."""
    return "python"
