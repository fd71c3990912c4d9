"""Alternating multilinear algebra over R^n (n <= 8) with a flat background metric.

A k-form is its coefficient row, one coefficient per strictly increasing
multi-index in lexicographic order; stacked forms are rows (..., C(n, k)), and
every operation takes n and the degrees from its caller.  Multi-indices are
1-based in `form_coeffs` (axis labels 1..n); all internal tables are 0-based.
"""
from __future__ import annotations

import itertools
import math
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
def _interior_maps(n: int, k: int) -> np.ndarray:
    """Contraction in the first slot as one matrix per axis, (n, C(n, k-1), C(n, k)):
    (e_p .| a) = _interior_maps(n, k)[p] @ a."""
    out = np.zeros((n, n_coeffs(n, k - 1), n_coeffs(n, k)))
    pos_in = index_position(n, k)
    for po, idx_out in enumerate(multi_indices(n, k - 1)):
        for p in range(n):
            if p not in idx_out:
                merged, sign = sort_with_sign((p,) + idx_out)
                out[p, po, pos_in[merged]] = sign
    out.flags.writeable = False  # shared by every caller
    return out


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
# coefficient rows

def form_coeffs(n: int, k: int, terms: dict[tuple[int, ...], float]) -> np.ndarray:
    """The coefficient row (C(n, k),) of {1-based multi-index (any order): coefficient}."""
    c = np.zeros(n_coeffs(n, k))
    pos = index_position(n, k)
    for idx, val in terms.items():
        srt, sign = sort_with_sign(tuple(i - 1 for i in idx))
        if sign == 0:
            raise ValueError(f"repeated axis in {idx}")
        c[pos[srt]] += sign * val
    return c


def to_tensor(coeffs, n: int, k: int) -> np.ndarray:
    """Full antisymmetric tensors (..., n, ..., n) of coefficient rows (..., C(n, k))."""
    flat_pos, sg, src = _tensor_table(n, k)
    coeffs = np.asarray(coeffs, float)
    t = np.zeros(coeffs.shape[:-1] + (n ** k,))
    t[..., flat_pos] = sg * coeffs[..., src]
    return t.reshape(coeffs.shape[:-1] + (n,) * k)


def from_tensor(t) -> np.ndarray:
    """The coefficient row of an antisymmetric tensor (n,) * k: its entries on
    the increasing multi-indices."""
    t = np.asarray(t, float)
    return t[tuple(np.array(multi_indices(t.shape[0], t.ndim)).T)]


def wedge(a, b, n: int, ka: int, kb: int) -> np.ndarray:
    """Wedge of coefficient rows (..., C(n, ka)) and (..., C(n, kb)).

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
        return wedge(a.ravel(), b.ravel(), n, ka, kb).reshape(lead + (-1,))
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
    shape (..., C(n, k)).  A form's value on the rows is minors(rows) @ coeffs."""
    rows = np.asarray(rows, float)
    k, n = rows.shape[-2:]
    if k == 0:
        return np.ones(rows.shape[:-2] + (1,))
    out = rows[..., 0, :]
    for i in range(1, k):
        out = wedge(out, rows[..., i, :], n, i, 1)
    return out


def interior(v, coeffs, n: int, k: int) -> np.ndarray:
    """Contraction in the first slot, (v .| a)(w_2, ..., w_k) = a(v, w_2, ..., w_k),
    of vectors (..., n) with coefficient rows (..., C(n, k)): rows (..., C(n, k - 1))."""
    if k < 1:
        raise DimensionError("interior product needs degree >= 1")
    return np.einsum("...p,pqc,...c->...q", np.asarray(v, float), _interior_maps(n, k),
                     np.asarray(coeffs, float))


def hodge_star(coeffs, n: int, k: int) -> np.ndarray:
    """Euclidean Hodge star of coefficient rows (..., C(n, k)): rows (..., C(n, n - k))."""
    perm, sg = _star_table(n, k)
    coeffs = np.asarray(coeffs, float)
    out = np.empty_like(coeffs)
    out[..., perm] = sg * coeffs
    return out


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
