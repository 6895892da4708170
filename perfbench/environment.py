"""The environment block recorded with every benchmark result."""
from __future__ import annotations

import ctypes
import os
import platform

import numpy as np


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded.

    The library is found in this process's own memory map and asked
    directly; the benchmark never changes its thread count.
    """
    info = {"library": None, "config": None, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return info
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info["library"] = os.path.basename(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                info["threads"] = threads()
                info["config"] = config().decode("ascii", "replace")
                return info
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    blas = _openblas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas["config"],
        "openblas_library": blas["library"],
        "blas_threads": blas["threads"],
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": _loadavg(),
    }
