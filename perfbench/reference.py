"""A fixed reference computation that measures the machine's current speed.

The host this benchmark runs on can change speed by tens of percent within
seconds (other tenants share its cores).  The benchmark times this kernel
before and after every op and reports op times scaled to the speed at
which the kernel takes ``NOMINAL_S``: reference seconds.  A drift that
slows the kernel and the op alike cancels; a change to the program does
not, because the kernel never calls it.

The kernel mimics the program's mix of work: a Python loop over small
elements with quadrature rules, monomial bases, einsum Gram matrices and
small dense factorizations, then one small sparse LU solve.  It is frozen:
changing it changes every reported time, so it only changes together with
the benchmark's definition.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve, solve
from scipy.special import roots_jacobi, roots_legendre

NOMINAL_S = 0.025   # about its time on a 2-core x86 VM at 2.x GHz, one BLAS thread
REPEATS = 3         # timings per measurement; their median is used


def kernel():
    """Deterministic work of roughly 25 ms; returns a checksum."""
    degree = 3
    exps = np.array([(d - b, b) for d in range(degree + 2) for b in range(d + 1)])
    a, b = exps[:, 0], exps[:, 1]
    total = 0.0
    for e in range(16):
        m = degree + 2
        xj, wj = roots_jacobi(m, 1.0, 0.0)
        xl, wl = roots_legendre(m)
        u, v = np.meshgrid((xj + 1) / 2, (xl + 1) / 2, indexing="ij")
        pts = np.column_stack([u.ravel(), (v * (1 - u)).ravel()])
        wts = np.outer(wj / 4, wl / 2).ravel()
        center = np.array([0.3 + 0.01 * e, 0.3])
        z = (pts - center) / 0.7
        V = z[:, [0]] ** a * z[:, [1]] ** b
        D = np.stack([a * z[:, [0]] ** np.maximum(a - 1, 0) * z[:, [1]] ** b,
                      b * z[:, [0]] ** a * z[:, [1]] ** np.maximum(b - 1, 0)], -1)
        G = np.einsum("pid,p,pjd->ij", D, wts, D)
        M = V.T * wts @ V
        for f in range(4):
            s, w = roots_legendre(degree + 1)
            fp = center + 0.1 * np.outer(s, [np.cos(f), np.sin(f)])
            Vf = ((fp - center) / 0.7)[:, [0]] ** a
            M = M + 1e-3 * (Vf.T * w @ Vf)
        P = solve(G + M, M[:, :4])
        total += float(cho_solve(cho_factor(M), P[:, 0]).sum())
    n = 12
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    A = (sp.kron(lap, sp.eye(n)) + sp.kron(sp.eye(n), lap)).tocsc()
    total += float(spla.splu(A).solve(np.ones(n * n)).sum())
    return total


def measure():
    """Median wall time of ``REPEATS`` kernel runs, in seconds."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[len(samples) // 2]
