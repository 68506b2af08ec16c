"""Resident memory of the sandwich covariance, read from the kernel.

``asymptotic_cov`` factors the active Gamma block by node-bisection blocks:
three lower triangles, each in an anonymous mapping whose strict upper half
is never written, so that half never becomes resident, and two dense
rectangles. tracemalloc does not see such a mapping, so a fresh interpreter
reads VmRSS before the call and VmHWM after it from /proc/self/status. The
bound was fixed before measuring: the growth must stay under one m-square
float64 array, the dense block the package formerly assembled. At the full
family the blocks are 7/16 of that (triangles of order m/4, m/4 and m/2, and
two m/2 x m/4 rectangles), where the former single triangle was half; the
residual rows R (N x m) and the walk's chunk arrays fit in the rest at d=48,
N=300. A small Cholesky runs first, so that BLAS's work buffers are resident
before the count.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import torusgraphs
from torusgraphs.model import param_dim

CHILD = r"""
import sys

import numpy as np
import scipy.linalg

from torusgraphs.estimation import accumulate_moments
from torusgraphs.inference import asymptotic_cov
from torusgraphs.model import TorusGraphParams, param_dim


def status(key):
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(key + ":"):
                return int(line.split()[1]) * 1024


d, n = int(sys.argv[1]), int(sys.argv[2])
X = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=(n, d))
moments = accumulate_moments(X)
params = TorusGraphParams(d=d, phi=np.zeros(param_dim(d)))
scipy.linalg.cho_factor(2.0 * np.eye(1024))  # BLAS makes its work buffers on first use
before = status("VmRSS")
asymptotic_cov(X, params, moments=moments)
print(status("VmHWM") - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_sandwich_growth_under_one_square_array():
    d, n = 48, 300
    src = pathlib.Path(torusgraphs.__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    threads = {key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=path, **threads)
    run = subprocess.run([sys.executable, "-c", CHILD, str(d), str(n)], env=env,
                         capture_output=True, text=True, check=True)
    growth = int(run.stdout)
    assert growth < 8 * param_dim(d) ** 2, f"VmHWM grew by {growth / 2**20:.1f} MB"
