"""Alternating multilinear algebra over R^n (n <= 8) with a flat background metric.

Coefficients of a k-form are stored densely, one per strictly increasing
multi-index in lexicographic order.  Multi-indices are 1-based in the public
API (axis labels 1..n); all internal tables are 0-based.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_DIM = 8
RANK_TOL = 1e-10


class DimensionError(ValueError):
    pass


class DegenerateInputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# multi-index tables (0-based internally)

@lru_cache(maxsize=None)
def multi_indices(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing k-tuples from {0..n-1}, lexicographic."""
    if not (0 <= k <= n <= MAX_DIM):
        raise DimensionError(f"need 0 <= k <= n <= {MAX_DIM}, got n={n}, k={k}")
    return tuple(itertools.combinations(range(n), k))


@lru_cache(maxsize=None)
def index_position(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {idx: p for p, idx in enumerate(multi_indices(n, k))}


def n_coeffs(n: int, k: int) -> int:
    return math.comb(n, k)


def sort_with_sign(idx: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort a tuple of distinct axes, returning the permutation sign (0 if repeated)."""
    order = sorted(idx)
    if any(order[i] == order[i + 1] for i in range(len(order) - 1)):
        return tuple(order), 0
    sign = 1
    work = list(idx)
    for i in range(len(work)):
        j = work.index(order[i], i)
        if j != i:
            work[i], work[j] = work[j], work[i]
            sign = -sign
    return tuple(order), sign


@lru_cache(maxsize=None)
def _wedge_table(n: int, ka: int, kb: int):
    """Index arrays (ia, ib, sign) of all nonzero basis products, each of
    shape (C(ka+kb, ka), C(n, ka+kb)): column p holds the terms of output p."""
    by_out = [[] for _ in range(n_coeffs(n, ka + kb))]
    pos_out = index_position(n, ka + kb)
    for pa, idx_a in enumerate(multi_indices(n, ka)):
        set_a = set(idx_a)
        for pb, idx_b in enumerate(multi_indices(n, kb)):
            if set_a & set(idx_b):
                continue
            merged, sign = sort_with_sign(idx_a + idx_b)
            by_out[pos_out[merged]].append((pa, pb, sign))
    terms = np.array(by_out).transpose(2, 1, 0)
    return terms[0], terms[1], terms[2].astype(float)


@lru_cache(maxsize=None)
def _interior_table(n: int, k: int):
    """(axis, pos_in, pos_out, sign) so that (v .| a)[pos_out] += sign*v[axis]*a[pos_in]."""
    ax, pi, po, sg = [], [], [], []
    pos_in = index_position(n, k)
    for po_idx, idx_out in enumerate(multi_indices(n, k - 1)):
        out_set = set(idx_out)
        for p in range(n):
            if p in out_set:
                continue
            merged, sign = sort_with_sign((p,) + idx_out)
            ax.append(p)
            pi.append(pos_in[merged])
            po.append(po_idx)
            sg.append(sign)
    return (np.asarray(ax), np.asarray(pi), np.asarray(po),
            np.asarray(sg, dtype=np.int64))


@lru_cache(maxsize=None)
def _star_table(n: int, k: int):
    """(complement positions, signs) of the Euclidean Hodge star on basis forms."""
    pos_out = index_position(n, n - k)
    perm = np.empty(n_coeffs(n, k), dtype=np.int64)
    sg = np.empty(n_coeffs(n, k), dtype=np.int64)
    for p, idx in enumerate(multi_indices(n, k)):
        comp = tuple(i for i in range(n) if i not in idx)
        _, sign = sort_with_sign(idx + comp)
        perm[p] = pos_out[comp]
        sg[p] = sign
    return perm, sg


@lru_cache(maxsize=None)
def _tensor_table(n: int, k: int):
    """Flat tensor positions and signs for the full antisymmetric expansion:
    entry p k! + s places coefficient p, times the sign of the s-th
    permutation of its k indices, at the flat position of that reordering."""
    idx = np.array(multi_indices(n, k), dtype=np.int64)                 # (C(n, k), k)
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)  # (k!, k)
    signs = np.array([sort_with_sign(perm)[1] for perm in map(tuple, perms)], dtype=np.int64)
    flat_pos = (idx[:, perms] @ n ** np.arange(k - 1, -1, -1, dtype=np.int64)).ravel()
    return (flat_pos, np.tile(signs, len(idx)),
            np.repeat(np.arange(len(idx)), len(perms)))


# ---------------------------------------------------------------------------
# domain types

def _metric_matrix(metric, n: int) -> np.ndarray | None:
    """Normalize a metric argument (n, n), or stacked (..., n, n); None or the
    identity -> None (Euclidean fast path)."""
    if metric is None:
        return None
    mat = np.asarray(metric, float)
    if mat.shape[-2:] != (n, n):
        raise DimensionError(f"metric shape {mat.shape} does not match n={n}")
    if np.array_equal(mat, np.eye(n)):
        return None
    return mat


@dataclass(frozen=True)
class KForm:
    """Dense alternating k-tensor over R^n."""
    n: int
    k: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs)
        if c.shape != (n_coeffs(self.n, self.k),):
            raise DimensionError(
                f"coefficient array must have length C({self.n},{self.k})"
            )
        object.__setattr__(self, "coeffs", c)

    # construction helpers -------------------------------------------------
    @staticmethod
    def zero(n: int, k: int) -> "KForm":
        return KForm(n, k, np.zeros(n_coeffs(n, k)))

    @staticmethod
    def from_components(n: int, k: int, terms: dict[tuple[int, ...], float]) -> "KForm":
        """Build from {1-based multi-index (any order): coefficient}."""
        c = np.zeros(n_coeffs(n, k))
        pos = index_position(n, k)
        for idx, val in terms.items():
            mi = tuple(i - 1 for i in idx)
            srt, sign = sort_with_sign(mi)
            if sign == 0:
                raise ValueError(f"repeated axis in {idx}")
            c[pos[srt]] += sign * val
        return KForm(n, k, c)

    @staticmethod
    def basis(n: int, *axes: int) -> "KForm":
        """The basis form e^{i1} ^ ... ^ e^{ik} for 1-based axes."""
        return KForm.from_components(n, len(axes), {tuple(axes): 1.0})

    @staticmethod
    def covector(v) -> "KForm":
        v = np.asarray(v, float)
        return KForm(v.shape[0], 1, v.copy())

    @staticmethod
    def from_tensor(t: np.ndarray) -> "KForm":
        t = np.asarray(t)
        n = t.shape[0]
        k = t.ndim
        idxs = multi_indices(n, k)
        c = np.array([t[idx] for idx in idxs], dtype=float)
        return KForm(n, k, c)

    # basic queries ---------------------------------------------------------
    def coefficient(self, idx: tuple[int, ...]) -> float:
        """Coefficient on a 1-based multi-index (any order, sign-adjusted)."""
        srt, sign = sort_with_sign(tuple(i - 1 for i in idx))
        if sign == 0:
            return 0.0
        return sign * float(self.coeffs[index_position(self.n, self.k)[srt]])

    def to_tensor(self) -> np.ndarray:
        """Full antisymmetric ndarray of shape (n,)*k."""
        flat_pos, sg, src = _tensor_table(self.n, self.k)
        t = np.zeros(self.n ** self.k, dtype=self.coeffs.dtype)
        t[flat_pos] = sg * self.coeffs[src]
        return t.reshape((self.n,) * self.k)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    # arithmetic ------------------------------------------------------------
    def _like(self, coeffs) -> "KForm":
        return KForm(self.n, self.k, coeffs)

    def __add__(self, other: "KForm") -> "KForm":
        self._check_same(other)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other: "KForm") -> "KForm":
        self._check_same(other)
        return self._like(self.coeffs - other.coeffs)

    def __neg__(self) -> "KForm":
        return self._like(-self.coeffs)

    def __mul__(self, s) -> "KForm":
        return self._like(self.coeffs * float(s))

    __rmul__ = __mul__

    def _check_same(self, other: "KForm"):
        if self.n != other.n:
            raise DimensionError("ambient dimension mismatch")
        if self.k != other.k:
            raise DimensionError("degree mismatch")


# ---------------------------------------------------------------------------
# operations

def wedge_coeffs(a, b, n: int, ka: int, kb: int) -> np.ndarray:
    """Wedge of coefficient arrays (..., C(n, ka)) and (..., C(n, kb)).

    The leading shapes must agree, or one of them must hold a single form,
    which is then used for every row of the other.  Batches are processed
    coefficient-major, one pass per term of an output coefficient, so the
    temporaries stay the size of the output.
    """
    if ka + kb > n:
        raise DimensionError(f"degree overflow: {ka}+{kb} > {n}")
    ia, ib, sg = _wedge_table(n, ka, kb)
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.ndim == b.ndim == 1:
        # one form each: a single gather of all terms
        return (sg * a[ia] * b[ib]).sum(axis=0)
    lead = max(a.shape[:-1], b.shape[:-1], key=math.prod)
    if a.size == a.shape[-1] and b.size == b.shape[-1]:
        return wedge_coeffs(a.ravel(), b.ravel(), n, ka, kb).reshape(lead + (-1,))
    at = np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T)
    bt = np.ascontiguousarray(b.reshape(-1, b.shape[-1]).T)
    out = 0.0
    for j in range(ia.shape[0]):
        term = at[ia[j]] * bt[ib[j]]
        term *= sg[j][:, None]
        out += term
    return out.T.reshape(lead + out.shape[:1])


def minors(rows) -> np.ndarray:
    """Coefficients of v_1 ^ ... ^ v_k for rows (..., k, n): the k x k minors,
    shape (..., C(n, k))."""
    rows = np.asarray(rows, float)
    k, n = rows.shape[-2:]
    if k == 0:
        return np.ones(rows.shape[:-2] + (1,))
    out = rows[..., 0, :]
    for i in range(1, k):
        out = wedge_coeffs(out, rows[..., i, :], n, i, 1)
    return out


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-commutative wedge product."""
    if a.n != b.n:
        raise DimensionError("ambient dimension mismatch")
    return KForm(a.n, a.k + b.k, wedge_coeffs(a.coeffs, b.coeffs, a.n, a.k, b.k))


def interior(v, a: KForm) -> KForm:
    """Contraction in the first slot: (v .| a)(w2,...,wk) = a(v, w2,...,wk)."""
    if a.k < 1:
        raise DimensionError("interior product needs degree >= 1")
    v = np.asarray(v, float)
    if v.shape != (a.n,):
        raise DimensionError("vector dimension mismatch")
    ax, pi, po, sg = _interior_table(a.n, a.k)
    out = np.zeros(n_coeffs(a.n, a.k - 1))
    np.add.at(out, po, sg * v[ax] * a.coeffs[pi])
    return KForm(a.n, a.k - 1, out)


def evaluate(a: KForm, vectors) -> float:
    """Fully alternating multilinear evaluation on k vectors."""
    vecs = np.asarray(vectors, float)
    if vecs.shape != (a.k, a.n):
        raise DimensionError(f"need {a.k} vectors of dimension {a.n}")
    return float(a.coeffs @ minors(vecs))


def pullback(a: KForm, mat) -> KForm:
    """The form a(M.,...,M.) for a linear map M on R^n."""
    if a.k == 0:
        return a
    m = np.asarray(mat, float)
    t = a.to_tensor()
    for slot in range(a.k):
        t = np.tensordot(t, m, axes=([0], [0]))
    return KForm.from_tensor(t)


def form_inner(a: KForm, b: KForm, metric=None) -> float:
    """Induced inner product on k-forms; Euclidean default."""
    a._check_same(b)
    g = _metric_matrix(metric, a.n)
    if g is None:
        return float(a.coeffs @ b.coeffs)
    basis = orthonormal_frames(np.eye(a.n), g)[0].T
    return float(pullback(a, basis).coeffs @ pullback(b, basis).coeffs)


def star_coeffs(coeffs, n: int, k: int) -> np.ndarray:
    """Euclidean Hodge star on coefficient arrays (..., C(n, k))."""
    perm, sg = _star_table(n, k)
    coeffs = np.asarray(coeffs, float)
    out = np.empty_like(coeffs)
    out[..., perm] = sg * coeffs
    return out


def hodge_star(a: KForm, metric=None, orientation: int = 1) -> KForm:
    """Hodge dual with respect to a constant metric and orientation sign."""
    g = _metric_matrix(metric, a.n)
    if g is None:
        return KForm(a.n, a.n - a.k, orientation * star_coeffs(a.coeffs, a.n, a.k))
    # columns: a g-orthonormal, positively oriented basis
    basis = orthonormal_frames(np.eye(a.n), g)[0].T
    in_frame = pullback(a, basis)
    starred = hodge_star(in_frame, None, orientation)
    return pullback(starred, np.linalg.inv(basis))


def orthonormal_frames(rows, metric=None):
    """Orthonormal frames (..., k, n) of the rows (..., k, n) under a constant
    metric (n, n) or stacked metrics (..., n, n), Euclidean by default, and
    the volumes sqrt(det Gram) (...).

    A frame is L^-1 rows, with L the Cholesky factor of the rows' Gram matrix:
    the rows Gram-Schmidt gives in input order, with the same orientation.
    L's diagonal holds the Gram-Schmidt norms, so a rank-deficient input is
    refused by Gram-Schmidt's rule: an entry below RANK_TOL, or no factor."""
    rows = np.asarray(rows, float)
    g = _metric_matrix(metric, rows.shape[-1])
    rt = np.swapaxes(rows, -1, -2)
    try:
        l = np.linalg.cholesky(rows @ rt if g is None else rows @ g @ rt)
        diag = np.diagonal(l, axis1=-2, axis2=-1)
        if not np.all(diag >= RANK_TOL):  # also refuses a NaN
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise DegenerateInputError("rows are rank deficient or the metric is not "
                                   "positive definite") from None
    return np.linalg.solve(l, rows), np.prod(diag, axis=-1)
