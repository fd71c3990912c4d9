"""Standard U(m), G2 and Spin(7) calibration structures on flat space.

Sign conventions are pinned to one fixed adapted-frame normal form for each
structure form; every derived table (cross products, Hodge duals, contraction
identities) is generated from these and unit-tested against quoted
coefficients, since the literature has competing conventions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations

import numpy as np

from .exterior import (
    DimensionError,
    form_coeffs,
    hodge_star,
    to_tensor,
    wedge,
)

TOL_CALIB = 1e-8
# batched kernels here and in variation size their row blocks so that the
# largest temporary stays within this; glibc keeps the freed heap of larger
# blocks resident, which reads as a higher peak RSS
BLOCK_BYTES = 256 * 1024

# e123 + e1^(e45 - e67) + e2^(e46 - e75) + e3^(e47 - e56), sorted indices
G2_PHI_TERMS = (
    ((1, 2, 3), 1), ((1, 4, 5), 1), ((1, 6, 7), -1),
    ((2, 4, 6), 1), ((2, 5, 7), 1),
    ((3, 4, 7), 1), ((3, 5, 6), -1),
)

# e1234 + (e12-e34)^(e56-e78) + (e13-e42)^(e57-e86) + (e14-e23)^(e58-e67) + e5678
SPIN7_PHI_TERMS = (
    ((1, 2, 3, 4), 1), ((5, 6, 7, 8), 1),
    ((1, 2, 5, 6), 1), ((1, 2, 7, 8), -1), ((3, 4, 5, 6), -1), ((3, 4, 7, 8), 1),
    ((1, 3, 5, 7), 1), ((1, 3, 6, 8), 1), ((2, 4, 5, 7), 1), ((2, 4, 6, 8), 1),
    ((1, 4, 5, 8), 1), ((1, 4, 6, 7), -1), ((2, 3, 5, 8), -1), ((2, 3, 6, 7), 1),
)


# ---------------------------------------------------------------------------
# kits

@dataclass(frozen=True, eq=False)
class Kit:
    """The standard structure of one calibration case on R^n.

    form is the read-only coefficient row of the cross product's form (omega,
    phi, psi or Phi), of degree arity + 1, and tensor its read-only float
    tensor; mu, the read-only row of degree calibration_dim, calibrates
    calibration_dim-planes.  The cross product cross(v_1, ..., v_r),
    r = arity = deg(form) - 1, is the vector with
    <cross(v_1, ..., v_r), w> = form(v_1, ..., v_r, w): J v, V x W, chi(U, V, W)
    or P(U, V, W).  Stacked vectors (..., n) broadcast.  Fewer vectors fill
    the leading slots and leave the trailing ones open: cross(v_1, ..., v_j)
    is (..., n, ..., n) with r + 1 - j open slots, so arity - 1 vectors give
    the (..., n, n) matrix M with x @ M = cross(v_1, ..., v_{r-1}, x), and
    cross() is the tensor.
    """
    case: str
    n: int
    calibration_dim: int
    form: np.ndarray
    mu: np.ndarray
    tensor: np.ndarray
    arity: int

    def cross(self, *vectors) -> np.ndarray:
        return _contract(self.tensor, vectors)


def standard_kit(case: str, m: int | None = None, k: int | None = None) -> Kit:
    """The standard-frame structure of one calibration case; m and k (the U(m)
    case calibrates 2k-planes in R^{2m}) apply to U(m) only."""
    if case == "um":
        if m is None or k is None:
            raise ValueError("the U(m) case needs m and k")
        if not (1 <= k <= m - 1):
            raise DimensionError(f"need 1 <= k <= m-1, got m={m}, k={k}")
        return _build_kit(case, m, k)
    if case in ("associative", "coassociative", "cayley"):
        return _build_kit(case, None, None)
    raise ValueError(f"unknown case {case!r}")


@lru_cache(maxsize=None)
def _build_kit(case: str, m: int | None, k: int | None) -> Kit:
    """One record per case (and U(m) shape) and process, from the term tables."""
    if case == "um":
        n, degree, dim = 2 * m, 2, 2 * k
        form = mu = form_coeffs(n, 2, {(2 * a + 1, 2 * a + 2): 1.0 for a in range(m)})
        for j in range(2, k + 1):  # the comass-one form omega^k / k!
            mu = wedge(mu, form, n, 2 * j - 2, 2) * (1.0 / j)
    elif case == "cayley":
        n, degree, dim = 8, 4, 4
        form = mu = form_coeffs(8, 4, dict(SPIN7_PHI_TERMS))
    elif case == "associative":
        n, degree, dim = 7, 3, 3
        form = mu = form_coeffs(7, 3, dict(G2_PHI_TERMS))
    else:  # psi = star phi
        n, degree, dim = 7, 4, 4
        form = mu = hodge_star(form_coeffs(7, 3, dict(G2_PHI_TERMS)), 7, 3)
    tensor = to_tensor(form, n, degree) + 0.0  # + 0.0 makes the zeros unsigned
    for shared in (form, mu, tensor):  # every caller gets this record
        shared.flags.writeable = False
    return Kit(case, n, dim, form, mu, tensor, degree - 1)


def _blocks(count: int, floats_per_node: int):
    """Slices over count rows, each of the largest power-of-two length whose
    temporary of floats_per_node floats a row fits in BLOCK_BYTES."""
    step = 1 << max(0, (BLOCK_BYTES // (8 * floats_per_node)).bit_length() - 1)
    for start in range(0, count, step):
        yield slice(start, start + step)


def _blockwise(fn, floats_per_row: int, *rows) -> np.ndarray:
    """fn over the _blocks of the rows, each block's result written into one
    output (N, ...); a one-row result holds for every row of its block.  A
    block's temporaries are freed before the next block's are made."""
    out = np.empty(0)
    for sl in _blocks(len(rows[0]), floats_per_row):
        res = fn(*(r[sl] for r in rows))
        if sl.start == 0:
            out = np.empty((len(rows[0]),) + np.shape(res)[1:])
        out[sl] = res
    return out


# ---------------------------------------------------------------------------
# cross products (stacked vectors (..., n) broadcast)

def _contract(tensor: np.ndarray, vectors) -> np.ndarray:
    """tensor(v_1, ..., v_j, ., ..., .): the leading j slots contracted, the
    trailing ones left open; no vector gives the tensor itself, and one
    vector is a matmul."""
    if not vectors:
        return tensor
    if len(vectors) == 1:
        v = np.asarray(vectors[0], float)
        return (v @ tensor.reshape(len(tensor), -1)).reshape(v.shape[:-1] + tensor.shape[1:])
    idx = "ijkl"[: tensor.ndim]
    spec = ",".join("..." + c for c in idx[: len(vectors)])
    return np.einsum(f"{idx},{spec}->...{idx[len(vectors):]}", tensor, *vectors)


# ---------------------------------------------------------------------------
# exact contraction identities (the tensors hold small integers, so every sum
# is exact in float)

def g2_identity_violations(phi: np.ndarray, psi: np.ndarray) -> dict[str, int]:
    """Max absolute violation of each G2 contraction identity family."""
    d = np.eye(7)
    checks = {
        "phiphi-pair": np.einsum("ijp,klp->ijkl", phi, phi)
        - (np.einsum("ik,jl->ijkl", d, d) - np.einsum("il,jk->ijkl", d, d) - psi),
        "phiphi-trace": np.einsum("ipq,jpq->ij", phi, phi) - 6 * d,
        "phipsi": np.einsum("ipq,jkpq->ijk", phi, psi) + 4 * phi,
        "phipsi-trace": np.einsum("mpq,jmpq->j", phi, psi),
        "psipsi-pair": np.einsum("ijpq,klpq->ijkl", psi, psi)
        - (4 * np.einsum("ik,jl->ijkl", d, d) - 4 * np.einsum("il,jk->ijkl", d, d) - 2 * psi),
        "psipsi-trace": np.einsum("impq,jmpq->ij", psi, psi) - 24 * d,
    }
    return {name: int(np.abs(v).max()) for name, v in checks.items()}


def spin7_identity_violations(Phi: np.ndarray) -> dict[str, int]:
    """Max absolute violation of each Spin(7) contraction identity family."""
    d = np.eye(8)
    checks = {
        "PhiPhi-pair": np.einsum("ijpq,klpq->ijkl", Phi, Phi)
        - (6 * np.einsum("ik,jl->ijkl", d, d) - 6 * np.einsum("il,jk->ijkl", d, d) - 4 * Phi),
        "PhiPhi-trace": np.einsum("impq,jmpq->ij", Phi, Phi) - 42 * d,
    }
    return {name: int(np.abs(v).max()) for name, v in checks.items()}


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows of the outer products a_i b_j, flattened to (N, 49)."""
    return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products, with no temporary of the products."""
    return np.einsum("bi,bi->b", a, b)


def _gram_dets(*rows) -> np.ndarray:
    stacks = np.stack(rows, axis=1)
    return np.linalg.det(stacks @ np.swapaxes(stacks, 1, 2))


def _associative_block(phi_t, psi_t, x, y, z):
    xy = _pairs(x, y)
    # chi_l = psi(x, y, z, e_l): contract psi(x, y, ., .) with z
    chi = (z[:, None, :] @ (xy @ psi_t.reshape(49, 49)).reshape(-1, 7, 7))[:, 0]
    return _dots(chi, chi) + _dots(xy @ phi_t.reshape(49, 7), z) ** 2 - _gram_dets(x, y, z)


def _coassociative_block(phi_t, psi_t, x, y, z, w):
    xy, zw = _pairs(x, y), _pairs(z, w)
    # u = phi(x, y, .) and v = phi(z, w, .); phi is alternating, so
    # phi(y, z, w) = v . y and phi(x, y, w) = u . w
    u, v = xy @ phi_t.reshape(49, 7), zw @ phi_t.reshape(49, 7)
    vec = (_dots(v, y)[:, None] * x - _dots(v, x)[:, None] * y
           + _dots(u, w)[:, None] * z - _dots(u, z)[:, None] * w)
    return (_dots(xy @ psi_t.reshape(49, 49), zw) ** 2 + _dots(vec, vec)
            - _gram_dets(x, y, z, w))


def _g2_blockwise(block, *rows) -> np.ndarray:
    phi_t, psi_t = (standard_kit(c).tensor for c in ("associative", "coassociative"))
    return _blockwise(partial(block, phi_t, psi_t), 49, *rows)


def associative_equality_residuals(xs, ys, zs) -> np.ndarray:
    """Batched residuals |chi(x,y,z)|^2 + phi(x,y,z)^2 - |x^y^z|^2 over triples
    of rows.  Each row block forms x (x) y once and contracts it by matmul with
    psi as a (49, 49) and phi as a (49, 7) matrix."""
    return _g2_blockwise(_associative_block, xs, ys, zs)


def coassociative_equality_residuals(xs, ys, zs, ws) -> np.ndarray:
    """Batched residuals psi(x,y,z,w)^2 + |vec|^2 - |x^y^z^w|^2 over quadruples
    of rows, where vec = phi(y,z,w) x - phi(x,z,w) y + phi(x,y,w) z - phi(x,y,z) w.
    Each row block forms x (x) y and z (x) w once and contracts them by matmul
    with psi as a (49, 49) and phi as a (49, 7) matrix."""
    return _g2_blockwise(_coassociative_block, xs, ys, zs, ws)


# ---------------------------------------------------------------------------
# calibration predicates

def invariance_defect(kit, tangent: np.ndarray):
    """Squared-norm failure of the tangent space to be closed under the kit's
    cross product: sum over selections S of arity - 1 tangent rows and over
    tangent rows f of |pi_N cross(S, f)|^2 (so a 3-fold product counts each
    triple of rows once per pair in it).  The product is alternating, so this
    is arity times the sum over the distinct sets of arity rows, each crossed
    once: cross(S, f) = 0 for f in S, and a set occurs once per member f, with
    the same |pi_N .|^2 (a reordering only flips the product's sign).

    tangent holds orthonormal rows (k, n), or stacked frames (..., k, n); the
    result is a float, or one defect per frame (...)."""
    tangent = np.asarray(tangent, float)
    # (..., sets, arity, n): the rows of each distinct product, gathered once
    rows = tangent[..., list(combinations(range(tangent.shape[-2]), kit.arity)), :]
    crossed = kit.cross(*(rows[..., j, :] for j in range(kit.arity)))
    normal = crossed - (crossed @ np.swapaxes(tangent, -1, -2)) @ tangent
    out = kit.arity * np.sum(normal * normal, axis=(-2, -1))
    return float(out) if out.ndim == 0 else out
