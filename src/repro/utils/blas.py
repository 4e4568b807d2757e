"""Size numpy's OpenBLAS thread pool.

Fleet workers are separate processes that solve at the same time; a
full-size BLAS pool in each of them oversubscribes the cores. On a 2-CPU
VM, two workers with a two-thread pool each took 0.95-1.2 s for the bench
fleet's ``run_sweep()``, against 0.20 s with one thread each.
:func:`share_blas_pool` gives a process its share of the CPUs instead.

Only numpy's bundled OpenBLAS (the ``scipy-openblas64`` build) exposes the
thread-count symbols used here; with any other BLAS every function does
nothing and :func:`blas_threads` returns ``None``.
"""

from __future__ import annotations

import ctypes
import glob
import os
from functools import cache

__all__ = ["blas_threads", "set_blas_threads", "share_blas_pool", "usable_cpus"]


@cache
def openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (already loaded), or None for other builds."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


def blas_threads() -> int | None:
    """Threads in numpy's OpenBLAS pool, or None when it cannot be read."""
    lib = openblas()
    return None if lib is None else int(lib.scipy_openblas_get_num_threads64_())


def set_blas_threads(n: int) -> None:
    """Resize numpy's OpenBLAS pool to *n* threads (no-op without the symbol)."""
    lib = openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(max(1, int(n)))


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity set, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def share_blas_pool(n_processes: int) -> int | None:
    """Shrink this process's BLAS pool to its share of :func:`usable_cpus`.

    The share is ``max(1, cpus // n_processes)``. A pool already at or below
    it (pinned through ``OPENBLAS_NUM_THREADS``, say) is left as it is.
    Returns the pool size afterwards, or None without BLAS control.
    """
    current = blas_threads()
    if current is None:
        return None
    share = max(1, usable_cpus() // n_processes)
    if share < current:
        set_blas_threads(share)
        return share
    return current
