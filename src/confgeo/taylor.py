"""Truncated multivariate Taylor series (Taylor-mode differentiation).

A `Series` carries, for a batch of N centre points u, the Taylor
coefficients of an array-valued function f of m variables up to total
degree `order`:

    f(u + t) = sum_{|alpha| <= order} c[alpha] t^alpha + O(|t|^(order+1))

stored coefficients first, c.shape = (n_monomials, N, *shape), with the
monomials sorted by total degree so that truncation to a lower order is a
prefix slice.  The arithmetic follows Griewank & Walther, *Evaluating
Derivatives* (2nd ed., ch. 13):

* a product gathers every coefficient pair (i, j) with deg i + deg j <=
  order from a cached pair table, multiplies (or, for tensor values,
  contracts) them in a few large calls and sums those that land on the same
  monomial in table order, one rank of a rank-major layout at a time;
* d/du_a shifts the coefficients down one degree, so it costs one order;
* a univariate function is f(a0 + t) = sum_k f^(k)(a0)/k! t^k over the
  nilpotent part t, summed by Horner's rule, each stage only to the order
  that its later factors of t leave; on a coordinate line u_a + t_a (a
  series that `Series.variables` made) t^k is the monomial t_a^k, so the
  coefficients are written onto the pure powers of t_a without a product,
  bit for bit what Horner's rule gives;
* a matrix inverse is the Neumann series around the centre value, and the
  normal and the triangular frame are fixed degree by degree from their
  centre values; step k of the inverse and of the normal runs at order k,
  the degree it fixes.

The value axes behave like a numpy array of shape (N, *shape): indexing,
`transpose` and broadcasting act on them, and `einsum` takes numpy's
subscripts.  A contraction runs with the point axis innermost, so that
numpy's inner loop runs over the N points and not over the 3 to 5 entries
of a tensor axis: each series operand's coefficients are copied once to
(n_monomials, *shape, N) and its pairs gathered from that copy, a per-point
array is viewed with its point axis last, an array without one (such as a
signature) is used as it is, and the result is moved back to (n_monomials,
N, ...).  The point letter is the first subscript of the first series
operand; every series operand and the output must carry it.

Arguments that are not series fall through to numpy, except that the
univariate functions hand sympy expressions to sympy's function of the same
name, so one formula serves arrays, series and symbols.  Tables are built
on first use and cached read-only.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache

import numpy as np

# einsum letter of the coefficient axis; callers' subscripts use lower case
_COEF = "Q"
# gathered coefficient pairs are processed in slices of about this size
_CHUNK_BYTES = 1 << 19


# ---------------------------------------------------------------------------
# monomial tables
# ---------------------------------------------------------------------------

def n_monomials(m: int, order: int) -> int:
    return math.comb(m + order, order)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=None)
def monomials(m: int, order: int) -> np.ndarray:
    """Exponents (n_monomials, m) of every monomial of degree <= order, by degree."""
    rows = []
    for d in range(order + 1):
        for combo in itertools.combinations_with_replacement(range(m), d):
            rows.append(np.bincount(np.asarray(combo, dtype=np.int64), minlength=m))
    return _frozen(np.array(rows, dtype=np.int64).reshape(-1, m))


def _lookup(m: int, order: int, alphas: np.ndarray) -> np.ndarray:
    """Monomial indices of the exponent rows `alphas` (all of degree <= order)."""
    weights = (order + 1) ** np.arange(m)
    codes = monomials(m, order) @ weights
    sorter = np.argsort(codes)
    return sorter[np.searchsorted(codes, np.asarray(alphas) @ weights, sorter=sorter)]


@lru_cache(maxsize=None)
def _pairs(m: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, starts): the monomial pairs whose product has degree <=
    order, grouped by product monomial; group k starts at starts[k]."""
    mons = monomials(m, order)
    deg = mons.sum(axis=1)
    left, right = np.nonzero(deg[:, None] + deg[None, :] <= order)
    prod = _lookup(m, order, mons[left] + mons[right])
    perm = np.argsort(prod, kind="stable")
    prod = prod[perm]
    starts = np.searchsorted(prod, np.arange(len(mons)))
    return _frozen(left[perm]), _frozen(right[perm]), _frozen(starts)


@lru_cache(maxsize=None)
def _line_table(m: int, order: int) -> np.ndarray:
    """(m, order + 1): monomial index of t_a^k at [a, k]."""
    powers = np.arange(order + 1)[:, None, None] * np.eye(m, dtype=np.int64)
    return _frozen(_lookup(m, order, powers).T.copy())


@lru_cache(maxsize=None)
def _grad_table(m: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """(src, factor), each (m, n_monomials(order - 1)): coefficient beta of
    d/du_a is (beta_a + 1) c[beta + e_a]."""
    low = monomials(m, order - 1)
    src = np.empty((m, len(low)), dtype=np.int64)
    fac = np.empty((m, len(low)))
    for a in range(m):
        up = low.copy()
        up[:, a] += 1
        src[a] = _lookup(m, order, up)
        fac[a] = up[:, a]
    return _frozen(src), _frozen(fac)


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------

def _pad(c: np.ndarray, ndim: int) -> np.ndarray:
    """View of coefficients c with value axes left-padded to `ndim` axes."""
    extra = ndim - (c.ndim - 1)
    return c.reshape(c.shape[:1] + (1,) * extra + c.shape[1:]) if extra > 0 else c


@lru_cache(maxsize=None)
def _pair_ranks(m: int, order: int, step: int) -> tuple:
    """The pair table laid out rank-major and cut into slices of `step`
    pairs: (rows, left, right, slices).

    `rows` lists the product monomials by pair count, descending.  Rank j
    holds the j-th pair of every monomial with more than j pairs, so its
    monomials are a prefix of `rows`; left and right run through rank 0,
    rank 1, ...  A slice is (lo, hi, adds): pairs lo:hi, and for each rank
    that meets them the (accumulator, slice) ranges that add it.  Adding the
    ranks in turn sums each monomial's pairs in table order.
    """
    left, right, starts = _pairs(m, order)
    counts = np.diff(np.append(starts, len(left)))
    rows = np.argsort(-counts, kind="stable")
    first, counts = starts[rows], counts[rows]
    ranks = [first[counts > j] + j for j in range(int(counts[0]))]
    bounds = list(itertools.accumulate([len(r) for r in ranks], initial=0))
    idx = np.concatenate(ranks)
    slices = []
    for lo in range(0, len(idx), step):
        hi = min(lo + step, len(idx))
        adds = tuple(
            (slice(max(r0, lo) - r0, min(r1, hi) - r0), slice(max(r0, lo) - lo, min(r1, hi) - lo))
            for r0, r1 in zip(bounds, bounds[1:])
            if r0 < hi and r1 > lo
        )
        slices.append((lo, hi, adds))
    return _frozen(rows), _frozen(left[idx]), _frozen(right[idx]), tuple(slices)


def _reduce_pairs(terms_of, m: int, order: int, per_pair: int) -> np.ndarray:
    """Sum from 0.0 of terms_of(left, right), the terms of the coefficient
    pairs with those indices, per product monomial over the pair table, each
    monomial's pairs added in table order.  The pairs go to terms_of in
    slices that keep the gathered arrays within _CHUNK_BYTES; the slice
    length is a power of two, so that the layouts cached for one (m, order)
    are few whatever the batch sizes."""
    step = max(1, _CHUNK_BYTES // (8 * max(1, per_pair)))
    step = 1 << (step.bit_length() - 1)
    rows, left, right, slices = _pair_ranks(m, order, min(step, len(_pairs(m, order)[0])))
    acc = None
    for lo, hi, adds in slices:
        terms = terms_of(left[lo:hi], right[lo:hi])
        if acc is None:
            acc = np.zeros((len(rows),) + terms.shape[1:])
        for dst, src in adds:
            acc[dst] += terms[src]
    out = np.empty_like(acc)
    out[rows] = acc
    return out


class Series:
    """Truncated Taylor series of a batch of array values (see the module docstring)."""

    __array_ufunc__ = None  # numpy defers its operators to Series and refuses ufuncs on it

    def __init__(self, c: np.ndarray, m: int, order: int):
        self.c = c
        self.m = m
        self.order = order
        # the axis a of a coordinate line u_a + t_a; only `variables` sets it
        self.line: int | None = None

    @classmethod
    def constant(cls, value, m: int, order: int) -> "Series":
        value = np.asarray(value, dtype=float)
        c = np.zeros((n_monomials(m, order),) + value.shape)
        c[0] = value
        return cls(c, m, order)

    @classmethod
    def variables(cls, U: np.ndarray, order: int) -> list["Series"]:
        """u_a + t_a for each coordinate of the points U (N, m)."""
        m = U.shape[1]
        out = []
        for a in range(m):
            s = cls.constant(U[:, a], m, order)
            if order >= 1:
                s.c[1 + a] = 1.0  # degree-1 monomials come in axis order
            s.line = a
            out.append(s)
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.c.shape[1:]

    @property
    def ndim(self) -> int:
        return self.c.ndim - 1

    @property
    def value(self) -> np.ndarray:
        """The centre values (order-0 coefficients)."""
        return self.c[0]

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return Series(self.c[: n_monomials(self.m, order)], self.m, order)

    def padded(self, order: int) -> "Series":
        """The series raised to `order` with zero coefficients above its own."""
        if order <= self.order:
            return self
        c = np.zeros((n_monomials(self.m, order),) + self.c.shape[1:])
        c[: len(self.c)] = self.c
        return Series(c, self.m, order)

    def nilpotent(self) -> "Series":
        """The series minus its centre value."""
        c = self.c.copy()
        c[0] = 0.0
        return Series(c, self.m, self.order)

    def __getitem__(self, idx) -> "Series":
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Series(self.c[(slice(None),) + idx], self.m, self.order)

    def transpose(self, axes) -> "Series":
        return Series(self.c.transpose((0,) + tuple(a + 1 for a in axes)), self.m, self.order)

    def grad(self) -> "Series":
        """Partial derivatives as a new last axis; one order lower."""
        if self.order < 1:
            raise ValueError("an order-0 series has no derivative")
        src, fac = _grad_table(self.m, self.order)
        d = self.c[src] * fac.reshape(fac.shape + (1,) * self.ndim)
        return Series(_move_axis(d, 0, d.ndim - 1), self.m, self.order - 1)

    # -- arithmetic -----------------------------------------------------------

    def _pair(self, other: "Series") -> tuple[np.ndarray, np.ndarray, int]:
        k = min(self.order, other.order)
        ca, cb = self.truncate(k).c, other.truncate(k).c
        nd = max(ca.ndim, cb.ndim) - 1
        return _pad(ca, nd), _pad(cb, nd), k

    def __add__(self, other) -> "Series":
        if isinstance(other, Series):
            ca, cb, k = self._pair(other)
            return Series(ca + cb, self.m, k)
        other = np.asarray(other, dtype=float)
        shape = np.broadcast_shapes(self.shape, other.shape)
        c = np.broadcast_to(_pad(self.c, len(shape)), self.c.shape[:1] + shape).copy()
        c[0] += other
        return Series(c, self.m, self.order)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series(-self.c, self.m, self.order)

    def __sub__(self, other) -> "Series":
        return self + (-other)

    def __rsub__(self, other) -> "Series":
        return (-self) + other

    def __mul__(self, other) -> "Series":
        if isinstance(other, Series):
            ca, cb, k = self._pair(other)
            size = max(math.prod(ca.shape[1:]), math.prod(cb.shape[1:]))
            # take gathers faster than indexing; its C-order result does not
            # change an elementwise product
            c = _reduce_pairs(lambda i, j: ca.take(i, 0) * cb.take(j, 0), self.m, k, 3 * size)
            return Series(c, self.m, k)
        other = np.asarray(other, dtype=float)
        return Series(_pad(self.c, other.ndim) * other, self.m, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Series":
        if isinstance(other, Series):
            return self * power(other, -1.0)
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other) -> "Series":
        return power(self, -1.0) * other

    def __pow__(self, p) -> "Series":
        return power(self, p)

    def __rpow__(self, base) -> "Series":
        return exp(self * np.log(np.asarray(base, dtype=float)))


# ---------------------------------------------------------------------------
# contractions and joins
# ---------------------------------------------------------------------------

def _move_axis(x: np.ndarray, src: int, dst: int) -> np.ndarray:
    """View of x with axis src moved to position dst (both non-negative);
    np.moveaxis normalises its arguments at a cost that showed as a tenth
    of a warm FD field."""
    axes = list(range(x.ndim))
    axes.insert(dst, axes.pop(src))
    return x.transpose(axes)


def _point_last(sub: str, x, p: str):
    """(subscripts, array) of an operand with its point axis moved last, in
    C order: a series' coefficients (Q, N, *rest) to (Q, *rest, N), a
    per-point array to (*rest, N); an array without the point letter as it
    is.  einsum runs several times faster on contiguous operands than on
    the strided views."""
    if isinstance(x, Series):
        if not sub.startswith(p):
            raise ValueError(f"series subscripts {sub!r} do not start with the point letter {p!r}")
        return sub[1:] + p, _move_axis(x.c, 1, x.c.ndim - 1).copy()
    if p not in sub:
        return sub, x
    return sub.replace(p, "") + p, np.ascontiguousarray(_move_axis(x, sub.index(p), x.ndim - 1))


def _contract(ta: str, a, tb: str, b, tout: str):
    """einsum of two operands, either of which may be a series; with a
    series it runs with the point axis innermost (see the module docstring)."""
    sa, sb = isinstance(a, Series), isinstance(b, Series)
    if not (sa or sb):
        return np.einsum(f"{ta},{tb}->{tout}", a, b)
    s = a if sa else b
    p = (ta if sa else tb)[0]
    if p not in tout:
        raise ValueError(f"output subscripts {tout!r} lack the point letter {p!r}")
    if sa and sb:
        k = min(a.order, b.order)
        a, b = a.truncate(k), b.truncate(k)
    else:
        k = s.order
    ta, xa = _point_last(ta, a, p)
    tb, xb = _point_last(tb, b, p)
    sub = f"{_COEF * sa}{ta},{_COEF * sb}{tb}->{_COEF}{tout.replace(p, '')}{p}"
    if sa and sb:
        per = max(math.prod(xa.shape[1:]), math.prod(xb.shape[1:]))
        c = _reduce_pairs(lambda i, j: np.einsum(sub, xa.take(i, 0), xb.take(j, 0)), s.m, k, 2 * per)
    else:
        c = np.einsum(sub, xa, xb)
    return Series(_move_axis(c, c.ndim - 1, 1 + tout.index(p)).copy(), s.m, k)


def einsum(subscripts: str, *operands):
    """numpy.einsum over the value axes.

    Without series operands this is numpy.einsum itself.  Otherwise the
    operands are contracted pairwise from the left, each intermediate keeping
    the indices that later operands or the output still need.
    """
    if not any(isinstance(op, Series) for op in operands):
        return np.einsum(subscripts, *operands)
    inputs, output = subscripts.replace(" ", "").split("->")
    terms = inputs.split(",")
    if _COEF in subscripts:
        raise ValueError(f"subscript letter {_COEF!r} is reserved for coefficients")
    acc, acc_t = operands[0], terms[0]
    for i in range(1, len(operands)):
        keep = set(output).union(*terms[i + 1:])
        out_t = "".join(dict.fromkeys(ch for ch in acc_t + terms[i] if ch in keep))
        acc = _contract(acc_t, acc, terms[i], operands[i], out_t)
        acc_t = out_t
    if acc_t != output:
        acc = Series(np.einsum(f"{_COEF}{acc_t}->{_COEF}{output}", acc.c), acc.m, acc.order)
    return acc


def concatenate(items: list, axis: int):
    """numpy.concatenate of series along a value axis; without series items
    this is numpy.concatenate itself."""
    if not any(isinstance(s, Series) for s in items):
        return np.concatenate(items, axis=axis)
    order = min(s.order for s in items)
    c = np.concatenate([s.truncate(order).c for s in items], axis=axis + 1 if axis >= 0 else axis)
    return Series(c, items[0].m, order)


def stack(items: list):
    """numpy.stack of series along a new last value axis; items that are not
    series are constants broadcast to the value shape of the first series.
    Without series items this is numpy's stack of the broadcast arrays."""
    ref = next((s for s in items if isinstance(s, Series)), None)
    if ref is None:
        return np.stack(np.broadcast_arrays(*items), axis=-1)
    items = [
        s if isinstance(s, Series)
        else Series.constant(np.broadcast_to(np.asarray(s, dtype=float), ref.shape), ref.m, ref.order)
        for s in items
    ]
    return concatenate([s[..., None] for s in items], -1)


def asarray(x):
    """A series as it is; anything else as a float array."""
    return x if isinstance(x, Series) else np.asarray(x, dtype=float)


def centre(x):
    """The centre values of a series; an array as it is."""
    return x.value if isinstance(x, Series) else x


# ---------------------------------------------------------------------------
# univariate functions
# ---------------------------------------------------------------------------

def _compose(s: Series, coeffs: list[np.ndarray]) -> Series:
    """sum_k coeffs[k] t^k with t the nilpotent part of s (Horner's rule).

    The stage that adds coeffs[k] is multiplied by t^k later on, so it runs
    at order K - k; t has no constant term, so the zero top coefficient that
    padding gives the previous stage never reaches the product.

    On a coordinate line t = t_a, and coeffs[k] goes straight to t_a^k.
    Horner's rule multiplies a finite coeffs[k] by exact ones and adds
    exact zeros, which turns -0.0 into +0.0; adding 0.0 does the same here.
    """
    K = s.order
    if s.line is not None and K >= 1:
        c = np.zeros((n_monomials(s.m, K),) + np.shape(coeffs[0]))
        c[_line_table(s.m, K)[s.line]] = np.stack(coeffs) + 0.0
        return Series(c, s.m, K)
    t = s.nilpotent()
    out = Series.constant(coeffs[K], s.m, 0)
    for k in range(K - 1, -1, -1):
        out = out.padded(K - k) * t.truncate(K - k) + coeffs[k]
    return out


def _taylor_coeffs(cycle: list[np.ndarray], K: int) -> list[np.ndarray]:
    """f^(k)(a0)/k! for a function whose derivatives repeat through `cycle`."""
    return [cycle[k % len(cycle)] / math.factorial(k) for k in range(K + 1)]


def is_sympy(x) -> bool:
    """Whether x is a sympy object; sympy is never imported to find out."""
    sympy = sys.modules.get("sympy")
    return sympy is not None and isinstance(x, sympy.Basic)


def _univariate(np_fn, series_fn):
    def apply(x):
        if isinstance(x, Series):
            return series_fn(x)
        if is_sympy(x):
            return getattr(sys.modules["sympy"], np_fn.__name__)(x)
        return np_fn(x)

    apply.__name__ = np_fn.__name__
    return apply


def _sin(s: Series) -> Series:
    a0 = s.value
    sn, cs = np.sin(a0), np.cos(a0)
    return _compose(s, _taylor_coeffs([sn, cs, -sn, -cs], s.order))


def _cos(s: Series) -> Series:
    a0 = s.value
    sn, cs = np.sin(a0), np.cos(a0)
    return _compose(s, _taylor_coeffs([cs, -sn, -cs, sn], s.order))


def _sinh(s: Series) -> Series:
    a0 = s.value
    return _compose(s, _taylor_coeffs([np.sinh(a0), np.cosh(a0)], s.order))


def _cosh(s: Series) -> Series:
    a0 = s.value
    return _compose(s, _taylor_coeffs([np.cosh(a0), np.sinh(a0)], s.order))


def _exp(s: Series) -> Series:
    return _compose(s, _taylor_coeffs([np.exp(s.value)], s.order))


def _log(s: Series) -> Series:
    a0 = s.value
    coeffs = [np.log(a0)] + [(-1.0) ** (k + 1) / (k * a0**k) for k in range(1, s.order + 1)]
    return _compose(s, coeffs)


def power(s: Series, p) -> Series:
    """s**p for a real constant p; non-negative integer powers multiply."""
    if isinstance(p, Series):
        raise TypeError("a series exponent is not supported")
    p = float(p)
    if p.is_integer() and p >= 0:
        out, base, n = None, s, int(p)
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return out if out is not None else Series.constant(np.ones(s.shape), s.m, s.order)
    a0 = s.value
    coeffs, binom = [], 1.0
    for k in range(s.order + 1):
        coeffs.append(binom * a0 ** (p - k))
        binom *= (p - k) / (k + 1)
    return _compose(s, coeffs)


def _sqrt(s: Series) -> Series:
    return power(s, 0.5)


sin = _univariate(np.sin, _sin)
cos = _univariate(np.cos, _cos)
sinh = _univariate(np.sinh, _sinh)
cosh = _univariate(np.cosh, _cosh)
exp = _univariate(np.exp, _exp)
log = _univariate(np.log, _log)
sqrt = _univariate(np.sqrt, _sqrt)

# the namespace handed to sympy.lambdify ahead of numpy
FUNCTIONS = {f.__name__: f for f in (sin, cos, sinh, cosh, exp, log, sqrt)}


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def inv(s: Series) -> Series:
    """Inverse of a batch of square matrices (N, k, k): Neumann series around
    the centre value, (A0 + T)^-1 = sum_j (-A0^-1 T)^j A0^-1.

    Step k forms S <- X S + I (X = -A0^-1 T) at order k: X has no constant
    term, so degree k of S needs only the degrees below k of the last S.
    """
    a0inv = np.linalg.inv(s.value)
    eye = np.eye(s.shape[-1])
    X = einsum("nab,nbc->nac", -a0inv, s.nilpotent())
    S = Series.constant(np.broadcast_to(eye, s.shape), s.m, 0)
    for k in range(1, s.order + 1):
        S = einsum("nab,nbc->nac", X.truncate(k), S.padded(k)) + eye
    return einsum("nab,nbc->nac", S, a0inv)


def normal(rows: Series, signs: np.ndarray, n0: np.ndarray) -> Series:
    """Unit normal of a row set: <n, row_k> = 0 for every row and <n, n> = -1.

    rows: (N, d-1, d); n0 (N, d) is the centre normal, which fixes the
    orientation.  Step k solves the bordered system [rows0 S; 2 n0^T S]
    (S = diag(signs)) for the residual at order k, which fixes degree k: the
    step sets that degree whatever its value before, so n enters it padded
    with zeros.
    """
    M0 = np.concatenate([rows.value * signs, 2.0 * (n0 * signs)[:, None, :]], axis=1)
    M0inv = np.linalg.inv(M0)
    n = Series.constant(n0, rows.m, 0)
    for k in range(1, rows.order + 1):
        n = n.padded(k)
        resid = concatenate(
            [
                einsum("nkc,c,nc->nk", rows.truncate(k), signs, n),
                (einsum("nc,c,nc->n", n, signs, n) + 1.0)[:, None],
            ],
            axis=1,
        )
        n = n - einsum("nij,nj->ni", M0inv, resid)
    return n


def triangular_frame(g: Series, F0: np.ndarray) -> Series:
    """Upper-triangular frame F with F^T g F = I around the centre frame F0.

    g: (N, k, k) positive definite; F0 = pseudo_linalg.triangular_frame of
    its centre value.  Each step F <- F - F Phi(F^T g F - I), with
    Phi(S) = triu(S, 1) + diag(S)/2 the upper-triangular half of a symmetric
    S, fixes at least one more degree and keeps F upper triangular.  The
    centre of F^T g F - I is zero up to roundoff and is dropped, so the
    centre of F stays F0.
    """
    k = g.shape[-1]
    half = np.triu(np.ones((k, k)), 1) + 0.5 * np.eye(k)
    F = Series.constant(F0, g.m, g.order)
    for _ in range(g.order):
        S = einsum("nai,nab,nbj->nij", F, g, F).nilpotent()
        F = F - einsum("nai,nij->naj", F, S * half)
    return F
