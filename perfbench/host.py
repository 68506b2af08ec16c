"""Host record written with every result."""

import os
import platform
from importlib import metadata
from pathlib import Path

import numpy as np


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _last_level_cache():
    """Size of the highest-level CPU cache, as Linux reports it, or None."""
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return None if best is None else f"L{best[0]} {best[1]}"


def _memory_mb():
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) // 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def record(blas_threads):
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas": _blas(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "last_level_cache": _last_level_cache(),
        "memory_mb": _memory_mb(),
    }
