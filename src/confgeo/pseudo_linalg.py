"""Linear algebra of indefinite forms.

Conventions: the quadratic form on R^n with s time-like slots is
diag(-1 x s, +1 x (n-s)), the time-like slots always occupying the FIRST s
coordinates; `form_signs(s, n)` is its diagonal.  Vectors are plain
arrays, and every computation runs on batches, with the batch axis first
(`pseudo_dot`, `batched_normal`, `triangular_frame`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import NORMAL_LEAD_TOL
from .errors import DimensionMismatchError, RegularityError, ValidationError


def cluster_eigenvalues(values: Sequence[float], rel_tol: float) -> list[tuple[float, int]]:
    """Greedy gap clustering of a sorted spectrum.

    Consecutive values within rel_tol * scale merge, scale = max(1, spectral
    radius).  Returns (cluster mean, multiplicity) pairs; multiplicities sum
    to the input length.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1:
        raise DimensionMismatchError("expected a 1-d spectrum")
    if vals.size == 0:
        return []
    if np.any(np.diff(vals) < 0):
        raise ValidationError("spectrum must be sorted ascending")
    scale = max(1.0, float(np.max(np.abs(vals))))
    gap = rel_tol * scale
    clusters: list[tuple[float, int]] = []
    start = 0
    for i in range(1, vals.size + 1):
        if i == vals.size or vals[i] - vals[i - 1] > gap:
            chunk = vals[start:i]
            clusters.append((float(np.mean(chunk)), int(chunk.size)))
            start = i
    return clusters


# ---------------------------------------------------------------------------
# vectorized helpers (batch axis first)
# ---------------------------------------------------------------------------

def form_signs(time: int, total: int) -> np.ndarray:
    """diag of the form with `time` time-like slots out of `total`."""
    if not (0 <= time <= total):
        raise ValidationError(f"signature requires 0 <= s <= n, got s={time}, n={total}")
    out = np.ones(total)
    out[:time] = -1.0
    return out


def pseudo_dot(a: np.ndarray, b: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """<a,b> along the last axis under diag(signs)."""
    return np.einsum("...c,c,...c->...", a, signs, b)


def batched_normal(rows: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Unit time-like vector orthogonal (w.r.t. the form) to each row set.

    rows: (N, d-1, d).  Uses the generalized cross product: the Euclidean
    cofactor normal of the rows, then signs applied to convert Euclidean
    orthogonality into form orthogonality.  Deterministic orientation: the
    first component exceeding NORMAL_LEAD_TOL * |n| is made negative.
    Smooth in the rows as long as that component stays away from zero on
    the patch.
    """
    N, k, d = rows.shape
    if k != d - 1:
        raise DimensionMismatchError(f"need d-1={d-1} rows, got {k}")
    cof = np.empty((N, d))
    cols = np.arange(d)
    for c in range(d):
        minor = rows[:, :, cols != c]
        cof[:, c] = (-1.0) ** c * np.linalg.det(minor)
    n = cof * signs
    nn = pseudo_dot(n, n, signs)
    bad = nn >= 0
    if np.any(bad):
        raise RegularityError(
            f"normal direction is not time-like (worst <n,n> = {np.max(nn):.3e}); "
            "tangent frame degenerate or not space-like"
        )
    n = n / np.sqrt(-nn)[:, None]
    # orientation rule
    mags = np.abs(n)
    norms = np.linalg.norm(n, axis=1, keepdims=True)
    lead = np.argmax(mags > NORMAL_LEAD_TOL * norms, axis=1)
    flip = n[np.arange(N), lead] > 0
    n[flip] *= -1.0
    return n


def triangular_frame(g: np.ndarray) -> np.ndarray:
    """Frame coefficients F with F^T g F = I, upper triangular.

    g: (N, m, m) positive definite.  Column i of F gives the coefficients of
    the i-th frame vector in the coordinate basis; the construction is the
    inverse transpose Cholesky factor, hence smooth in g and triangular with
    respect to the coordinate order.
    """
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise RegularityError(f"induced metric not positive definite: {exc}") from exc
    return np.linalg.inv(np.transpose(L, (0, 2, 1)))
