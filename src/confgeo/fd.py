"""Least-squares polynomial jets of charts known only through an evaluator.

Around each point u the chart is evaluated once on the cloud u + reach * s,
s running over the integer offsets in [-w, w]^m of l1 norm <= l, divided
by w.  The polynomial of degree d fitted to these values by least squares
is a local Taylor model, as in Savitzky & Golay (1964); its coefficients
up to the requested order are the jet.  The fit is one precomputed linear
map per m, a stencil on the cloud whose row alpha holds the weights of the
coefficient of monomial alpha: the design is solved once by QR in the
scaled offsets, each row made exactly even or odd across the symmetric
cloud, as the exact fit is, and the rows up to order 5 cached read-only on
first use.  It is applied to the values minus the centre value, which it
reproduces exactly in exact arithmetic; this keeps the roundoff of the
constant part out of the higher coefficients (5x less error at order 4 on
the warped product).

The error of an order-r coefficient is roundoff, growing like
reach^-r, plus truncation, growing like reach^(d + 1 - r).  plan(m) gives
(d, w, l, default reach).  m = 3 takes d = 8 on 461 points (design
condition number 6e3).  At m = 4 no reach of that design serves both the
warped product, whose order-4 roundoff exceeds 1e-8 below a reach of 0.1,
and ex33, whose order-5 truncation (4e-5 relative at 0.1) flips its FD
classification; d = 10 on 6,561 points at a reach of 0.15 gives 1.7e-9 and
1.0e-6.  A degree d needs w >= d / 2, so that each axis takes d + 1 values.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable

import numpy as np

from . import taylor

# the highest jet order a fit provides
MAX_ORDER = 5


def plan(m: int) -> tuple[int, int, int, float]:
    """(degree, half-width, l1 bound, default reach) of the fit at dimension m."""
    return (10, 5, 10, 0.15) if m == 4 else (8, 4, 2 * m + 1, 0.1)


def default_reach(m: int) -> float:
    return plan(m)[3]


@lru_cache(maxsize=None)
def design(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, W): the cloud's scaled offsets S (P, m) in [-1, 1], and the rows
    W (n_monomials(m, MAX_ORDER), P) of the fit that map values on the
    cloud to the coefficients of the monomials of taylor.monomials in the
    scaled offsets.  The cloud is symmetric and in lexicographic order, so
    the centre is S[P // 2] and S[::-1] == -S.  Row alpha is exactly even
    or odd under that reflection with |alpha|, its reflected roundoff
    averaged out, so the centre weight of an odd row is 0."""
    degree, width, l1, _ = plan(m)
    grid = itertools.product(range(-width, width + 1), repeat=m)
    S = np.array([o for o in grid if sum(map(abs, o)) <= l1], dtype=float) / width
    mons = taylor.monomials(m, degree)
    V = np.ones((S.shape[0], mons.shape[0]))
    for a in range(m):
        V *= (S[:, a, None] ** np.arange(degree + 1))[:, mons[:, a]]
    Q, R = np.linalg.qr(V)
    k = taylor.n_monomials(m, MAX_ORDER)
    W = np.linalg.inv(R)[:k] @ Q.T
    parity = (-1.0) ** taylor.monomials(m, MAX_ORDER).sum(axis=1)
    W = 0.5 * (W + parity[:, None] * W[:, ::-1])
    S.setflags(write=False)
    W.setflags(write=False)
    return S, W


def fit_series(
    f: Callable[[np.ndarray], np.ndarray], U: np.ndarray, reach: float, order: int
) -> taylor.Series:
    """Taylor series up to `order` (<= MAX_ORDER) of the batched map
    f: (N, m) -> (N, c) around each point of U, from one call of f on the
    stacked clouds."""
    N, m = U.shape
    S, W = design(m)
    P = S.shape[0]
    values = f((reach * S[:, None, :] + U[None]).reshape(-1, m))
    flat = values.reshape(P, -1)
    centre = flat[P // 2]
    k = taylor.n_monomials(m, order)
    scale = reach ** -taylor.monomials(m, order).sum(axis=1).astype(float)
    c = (W[:k] * scale[:, None]) @ (flat - centre)
    c[0] += centre
    return taylor.Series(c.reshape((k, N) + values.shape[1:]), m, order)
