"""Central finite-difference stencils for jets and field derivatives.

Weights are the exact rational Fornberg weights (sympy.finite_diff_weights)
rounded once to floats and cached per (derivative order, accuracy), so odd
stencils are exactly antisymmetric with a zero centre tap and even stencils
exactly symmetric.  Mixed partials use tensor products of 1-d stencils
and skip the taps whose weight product is zero; derivative orders 3 and 4
get one Richardson step.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable

import numpy as np
import sympy as sp

from .config import FDConfig


@lru_cache(maxsize=None)
def stencil(deriv: int, accuracy: int) -> tuple[np.ndarray, np.ndarray]:
    """Central offsets and weights for d^deriv/dx^deriv at accuracy order p."""
    if deriv < 1:
        raise ValueError("derivative order must be >= 1")
    n = 2 * ((deriv + 1) // 2) - 1 + accuracy
    if n % 2 == 0:
        n += 1
    r = n // 2
    exact = sp.finite_diff_weights(deriv, [sp.Integer(k) for k in range(-r, r + 1)], 0)
    offs = np.arange(-r, r + 1, dtype=float)
    w = np.array([float(v) for v in exact[deriv][-1]])
    offs.setflags(write=False)
    w.setflags(write=False)
    return offs, w


def _tensor_apply(
    f: Callable[[np.ndarray], np.ndarray],
    U: np.ndarray,
    alpha: tuple[int, ...],
    h: float,
    accuracy: int,
) -> np.ndarray:
    """Tensor-product stencil application of D^alpha to batched f at step h."""
    per_axis: list[tuple[np.ndarray, np.ndarray]] = []
    for d in alpha:
        if d == 0:
            per_axis.append((np.zeros(1), np.ones(1)))
        else:
            offs, w = stencil(d, accuracy)
            per_axis.append((offs, w / h**d))
    total = None
    for combo in itertools.product(*[range(len(o)) for o, _ in per_axis]):
        wprod = 1.0
        for ax, idx in enumerate(combo):
            wprod *= per_axis[ax][1][idx]
        if wprod == 0.0:
            continue
        V = U.copy()
        for ax, idx in enumerate(combo):
            V[:, ax] = V[:, ax] + per_axis[ax][0][idx] * h
        val = f(V)
        term = val * wprod
        total = term if total is None else total + term
    return total


def fd_partial(
    f: Callable[[np.ndarray], np.ndarray],
    U: np.ndarray,
    alpha: tuple[int, ...],
    cfg: FDConfig,
    scale: float | None = None,
) -> np.ndarray:
    """Mixed partial D^alpha of a batched map f: (N, m) -> (N, ...).

    The step follows cfg.step_for for the total order; Richardson refinement
    is applied for total orders >= 3 when enabled.
    """
    r = sum(alpha)
    if r == 0:
        return f(U)
    if scale is None:
        scale = float(np.max(np.abs(U))) if U.size else 1.0
    h = cfg.step_for(r, scale=scale)
    if cfg.richardson and r >= 3:
        coarse = _tensor_apply(f, U, alpha, h, cfg.order)
        fine = _tensor_apply(f, U, alpha, h / 2.0, cfg.order)
        gain = 2.0**cfg.order
        return (gain * fine - coarse) / (gain - 1.0)
    return _tensor_apply(f, U, alpha, h, cfg.order)
