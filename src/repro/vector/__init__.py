"""Vector similarity indexes (substitute for FAISS)."""

import ctypes
import glob
import os

import numpy as np

from repro.vector.flat import FlatIndex
from repro.vector.ivf import IVFIndex

__all__ = ["FlatIndex", "IVFIndex"]


def _pin_blas_to_caller() -> None:
    """Run numpy's bundled OpenBLAS on the calling thread only.

    Every BLAS product in the program is here: a retrieval GEMV of at
    most ~0.8 M multiply-adds, or the IVF ablation's k-means GEMM.  The
    program's own threads are its concurrency; an OpenBLAS pool only
    spin-waits a second core after each product, and its results are
    bit-identical at any thread count.  A numpy without a bundled
    OpenBLAS is left as it is.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            set_threads = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


_pin_blas_to_caller()
