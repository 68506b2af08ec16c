"""Resident memory of the sandwich covariance, read from the kernel.

``asymptotic_cov`` factors the active Gamma block by node-bisection blocks:
three lower triangles, each in rectangular full packed storage of
n(n + 1)/2 values for order n, and two dense rectangles. tracemalloc sees
Python's allocations alone, not LAPACK's, so a fresh interpreter reads
VmRSS before the call and VmHWM after it from /proc/self/status. A small
Cholesky runs first, so that BLAS's work buffers are resident before the
count. Both bounds were fixed before measuring:

- the growth stays under one m-square float64 array, the dense block the
  package formerly assembled;
- the growth stays under the float64 values that the factor and the
  residual rows R hold: sum n(n + 1)/2 over the three triangles,
  |S|(|A| + |B|) for the two rectangles and N m for R, 85.4 MB (81.4 MiB)
  at d=48, N=300. The former storage, an m-square mapping per triangle
  whose strict upper half was never written, grew by 92.6 MiB here: each
  column of a triangle started part-way into a page.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import torusgraphs
from torusgraphs.estimation import _bisection_order
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


def sandwich_growth(d, n):
    """VmHWM growth, in bytes, around ``asymptotic_cov`` at d and N=n in a
    fresh interpreter on one BLAS thread."""
    src = pathlib.Path(torusgraphs.__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    threads = {key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=path, **threads)
    run = subprocess.run([sys.executable, "-c", CHILD, str(d), str(n)], env=env,
                         capture_output=True, text=True, check=True)
    return int(run.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_sandwich_growth_under_one_square_array():
    d, n = 48, 300
    growth = sandwich_growth(d, n)
    assert growth < 8 * param_dim(d) ** 2, f"VmHWM grew by {growth / 2**20:.1f} MiB"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_sandwich_growth_under_factor_and_residual_values():
    d, n = 48, 300
    m = param_dim(d)
    a, b, s = _bisection_order(d, np.arange(m))[1].tolist()
    values = sum(k * (k + 1) // 2 for k in (a, b, s)) + s * (a + b) + n * m
    growth = sandwich_growth(d, n)
    assert growth < 8 * values, (f"VmHWM grew by {growth / 2**20:.1f} MiB, "
                                 f"over the {8 * values / 2**20:.1f} MiB of values")
