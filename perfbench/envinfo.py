"""The software and machine set-up a result was measured on."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np
import scipy

# Thread-count getters of the OpenBLAS builds numpy ships with or links to.
_BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads() -> int | None:
    """Ask the BLAS library numpy loaded for its thread count."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    candidates = [str(p) for p in sorted(libs.glob("*blas*"))] if libs.is_dir() else []
    candidates.append(None)  # symbols already global in the process
    for lib in candidates:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in _BLAS_THREAD_GETTERS:
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def collect() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "RATEKIT_THREADS": os.environ.get("RATEKIT_THREADS"),
    }
