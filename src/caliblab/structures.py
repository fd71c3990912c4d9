"""Standard U(m), G2 and Spin(7) calibration structures on flat space.

Sign conventions are pinned to one fixed adapted-frame normal form for each
structure form; every derived table (cross products, Hodge duals, contraction
identities) is generated from these and unit-tested against quoted
coefficients, since the literature has competing conventions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .exterior import (
    DimensionError,
    KForm,
    evaluate,
    hodge_star,
    orthonormal_frames,
    wedge,
)

TOL_CALIB = 1e-8
# projected gradient-ascent steps of comass_sample after the random planes
COMASS_ASCENT_STEPS = 60
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


def _int_form(n: int, k: int, terms) -> KForm:
    return KForm.from_components(n, k, {idx: float(s) for idx, s in terms})


def _int_tensor(form: KForm) -> np.ndarray:
    t = form.to_tensor()
    return np.rint(t).astype(np.int64)


# ---------------------------------------------------------------------------
# kits

# Each kit's cross product kit.cross(v_1, ..., v_r), r = kit.arity, is the vector
# with <cross(v_1, ..., v_r), w> = omega, phi, psi or Phi on (v_1, ..., v_r, w):
# J v, V x W, chi(U, V, W) or P(U, V, W).  Stacked vectors (..., n) broadcast.
CROSS_ARITY = {"um": 1, "associative": 2, "coassociative": 3, "cayley": 3}


@dataclass(frozen=True)
class UmKit:
    """Standard U(m) structure on R^{2m}, calibrating 2k-dimensional planes."""
    m: int
    k: int

    case = "um"
    arity = CROSS_ARITY["um"]

    @property
    def n(self) -> int:
        return 2 * self.m

    @property
    def calibration_dim(self) -> int:
        return 2 * self.k

    @property
    def J(self) -> np.ndarray:
        """The complex structure, one read-only array per m."""
        return _um_j(self.m)

    def cross(self, v) -> np.ndarray:
        return np.asarray(v, float) @ self.J.T

    @property
    def omega(self) -> KForm:
        return KForm.from_components(
            self.n, 2, {(2 * a + 1, 2 * a + 2): 1.0 for a in range(self.m)}
        )

    @property
    def mu(self) -> KForm:
        """The comass-one form omega^k / k!."""
        out = self.omega
        for j in range(2, self.k + 1):
            out = wedge(out, self.omega) * (1.0 / j)
        return out


@dataclass(frozen=True)
class G2Kit:
    """Standard G2 structure on R^7; flavor picks the calibration (phi or psi)."""
    flavor: str  # "associative" | "coassociative"

    n = 7

    @property
    def case(self) -> str:
        return self.flavor

    @property
    def arity(self) -> int:
        return CROSS_ARITY[self.flavor]

    @property
    def calibration_dim(self) -> int:
        return 3 if self.flavor == "associative" else 4

    @property
    def phi(self) -> KForm:
        return _g2_forms()[0]

    @property
    def psi(self) -> KForm:
        return _g2_forms()[1]

    @property
    def mu(self) -> KForm:
        return self.phi if self.flavor == "associative" else self.psi

    @property
    def phi_tensor(self) -> np.ndarray:
        return _g2_tensors()[0]

    @property
    def psi_tensor(self) -> np.ndarray:
        return _g2_tensors()[1]

    def cross(self, *vectors) -> np.ndarray:
        return (cross_2fold if self.flavor == "associative" else chi_3fold)(*vectors)


@dataclass(frozen=True)
class Spin7Kit:
    """Standard Spin(7) structure on R^8; Phi is self-dual and calibrates Cayley 4-planes."""

    case = "cayley"
    arity = CROSS_ARITY["cayley"]
    n = 8
    calibration_dim = 4

    @property
    def Phi(self) -> KForm:
        return _spin7_form()

    @property
    def mu(self) -> KForm:
        return self.Phi

    @property
    def Phi_tensor(self) -> np.ndarray:
        return _spin7_tensor()

    def cross(self, u, v, w) -> np.ndarray:
        return cayley_cross(u, v, w)


StructureKit = UmKit | G2Kit | Spin7Kit


@lru_cache(maxsize=None)
def _um_j(m: int) -> np.ndarray:
    j = np.zeros((2 * m, 2 * m))
    for a in range(m):
        j[2 * a + 1, 2 * a] = 1.0
        j[2 * a, 2 * a + 1] = -1.0
    j.flags.writeable = False
    return j


@lru_cache(maxsize=None)
def _g2_forms():
    phi = _int_form(7, 3, G2_PHI_TERMS)
    return phi, hodge_star(phi)


@lru_cache(maxsize=None)
def _spin7_form():
    return _int_form(8, 4, SPIN7_PHI_TERMS)


@lru_cache(maxsize=None)
def _g2_tensors():
    phi, psi = _g2_forms()
    return _int_tensor(phi), _int_tensor(psi)


@lru_cache(maxsize=None)
def _spin7_tensor():
    return _int_tensor(_spin7_form())


@lru_cache(maxsize=None)
def _float_tensors():
    """Float copies of phi, psi and Phi, shared by every contraction with them."""
    return tuple(t.astype(float) for t in (*_g2_tensors(), _spin7_tensor()))


def standard_kit(case: str, m: int | None = None, k: int | None = None) -> StructureKit:
    """Build the standard-frame structure data for one calibration case."""
    if case == "um":
        if m is None or k is None:
            raise ValueError("the U(m) case needs m and k")
        if not (1 <= k <= m - 1):
            raise DimensionError(f"need 1 <= k <= m-1, got m={m}, k={k}")
        return UmKit(m, k)
    if case in ("associative", "coassociative"):
        return G2Kit(case)
    if case == "cayley":
        return Spin7Kit()
    raise ValueError(f"unknown case {case!r}")


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
    """tensor(v_1, ..., v_r, .)."""
    idx = "ijkl"[: tensor.ndim]
    spec = ",".join("..." + c for c in idx[:-1])
    return np.einsum(f"{idx},{spec}->...{idx[-1]}", tensor, *vectors)


def cross_2fold(X, Y) -> np.ndarray:
    """The 7-dimensional cross product: <X x Y, Z> = phi(X, Y, Z)."""
    return _contract(_float_tensors()[0], (X, Y))


def chi_3fold(X, Y, Z) -> np.ndarray:
    """The vector-valued 3-form chi: <chi(X,Y,Z), W> = psi(X, Y, Z, W)."""
    return _contract(_float_tensors()[1], (X, Y, Z))


def cayley_cross(X, Y, Z) -> np.ndarray:
    """The 3-fold cross product on R^8: <P(X,Y,Z), W> = Phi(X, Y, Z, W)."""
    return _contract(_float_tensors()[2], (X, Y, Z))


# ---------------------------------------------------------------------------
# exact contraction identities

def contraction_identity_check(kit) -> dict[str, int]:
    """Max absolute integer violation of each contraction identity family."""
    if isinstance(kit, G2Kit):
        return g2_identity_violations(kit.phi_tensor, kit.psi_tensor)
    if isinstance(kit, Spin7Kit):
        return spin7_identity_violations(kit.Phi_tensor)
    raise ValueError("contraction identities apply to G2 and Spin(7) kits")


def g2_identity_violations(phi: np.ndarray, psi: np.ndarray) -> dict[str, int]:
    d = np.eye(7, dtype=np.int64)
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
    d = np.eye(8, dtype=np.int64)
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


def _associative_block(x, y, z):
    phi_t, psi_t, _ = _float_tensors()
    xy = _pairs(x, y)
    # chi_l = psi(x, y, z, e_l): contract psi(x, y, ., .) with z
    chi = (z[:, None, :] @ (xy @ psi_t.reshape(49, 49)).reshape(-1, 7, 7))[:, 0]
    return _dots(chi, chi) + _dots(xy @ phi_t.reshape(49, 7), z) ** 2 - _gram_dets(x, y, z)


def _coassociative_block(x, y, z, w):
    phi_t, psi_t, _ = _float_tensors()
    xy, zw = _pairs(x, y), _pairs(z, w)
    # u = phi(x, y, .) and v = phi(z, w, .); phi is alternating, so
    # phi(y, z, w) = v . y and phi(x, y, w) = u . w
    u, v = xy @ phi_t.reshape(49, 7), zw @ phi_t.reshape(49, 7)
    vec = (_dots(v, y)[:, None] * x - _dots(v, x)[:, None] * y
           + _dots(u, w)[:, None] * z - _dots(u, z)[:, None] * w)
    return (_dots(xy @ psi_t.reshape(49, 49), zw) ** 2 + _dots(vec, vec)
            - _gram_dets(x, y, z, w))


def associative_equality_residuals(xs, ys, zs) -> np.ndarray:
    """Batched residuals |chi(x,y,z)|^2 + phi(x,y,z)^2 - |x^y^z|^2 over triples
    of rows.  Each row block forms x (x) y once and contracts it by matmul with
    psi as a (49, 49) and phi as a (49, 7) matrix."""
    return _blockwise(_associative_block, 49, xs, ys, zs)


def coassociative_equality_residuals(xs, ys, zs, ws) -> np.ndarray:
    """Batched residuals psi(x,y,z,w)^2 + |vec|^2 - |x^y^z^w|^2 over quadruples
    of rows, where vec = phi(y,z,w) x - phi(x,z,w) y + phi(x,y,w) z - phi(x,y,z) w.
    Each row block forms x (x) y and z (x) w once and contracts them by matmul
    with psi as a (49, 49) and phi as a (49, 7) matrix."""
    return _blockwise(_coassociative_block, 49, xs, ys, zs, ws)


# ---------------------------------------------------------------------------
# calibration predicates

@dataclass(frozen=True)
class CalibrationReport:
    plane: np.ndarray  # orthonormal tangent rows (k, n)
    value: float
    defect: float
    is_calibrated: bool


@lru_cache(maxsize=None)
def _defect_pairs(k: int, arity: int) -> np.ndarray:
    """Row indices (pairs, arity) of the defect's products: each selection S of
    arity - 1 of k rows, followed by one row f outside S."""
    pairs = np.array([(*sel, f) for sel in combinations(range(k), arity - 1)
                      for f in range(k) if f not in sel], dtype=int).reshape(-1, arity)
    pairs.flags.writeable = False
    return pairs


def invariance_defect(kit, tangent: np.ndarray):
    """Squared-norm failure of the tangent space to be closed under the kit's
    cross product: sum over selections S of arity - 1 tangent rows and over
    tangent rows f of |pi_N cross(S, f)|^2 (so a 3-fold product counts each
    triple of rows once per pair in it).  A row f in S gives cross(S, f) = 0,
    since the cross product is alternating, so each S is paired only with the
    rows outside it (_defect_pairs).

    tangent holds orthonormal rows (k, n), or stacked frames (..., k, n); the
    result is a float, or one defect per frame (...)."""
    tangent = np.asarray(tangent, float)
    # (..., pairs, arity, n): the rows of each product, gathered once
    rows = tangent[..., _defect_pairs(tangent.shape[-2], kit.arity), :]
    crossed = kit.cross(*(rows[..., j, :] for j in range(kit.arity)))
    normal = crossed - (crossed @ np.swapaxes(tangent, -1, -2)) @ tangent
    out = np.sum(normal * normal, axis=(-2, -1))
    return float(out) if out.ndim == 0 else out


def calibration_report(kit, tangent_basis, tol: float = TOL_CALIB) -> CalibrationReport:
    """Evaluate the calibration form and the invariance defect on a k-plane."""
    rows = np.asarray(tangent_basis, float)
    if rows.ndim != 2 or len(rows) != kit.calibration_dim:
        raise DimensionError(
            f"{kit.case} calibrates {kit.calibration_dim}-planes, got rows {rows.shape}"
        )
    frame = orthonormal_frames(rows)[0]
    value = evaluate(kit.mu, frame)
    defect = invariance_defect(kit, frame)
    return CalibrationReport(frame, value, defect, defect < tol)


def comass_sample(kit, trials: int, seed: int = 0) -> float:
    """Max of mu over sampled oriented k-planes, refined by projected gradient ascent."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n, k = kit.n, kit.calibration_dim
    mu_t = kit.mu.to_tensor()
    spec = "ijkl"[:k]
    args_spec = ",".join(f"b{c}" for c in spec)

    def values(q):  # q: (batch, n, k), columns orthonormal
        cols = [q[:, :, a] for a in range(k)]
        return np.einsum(f"{spec},{args_spec}->b", mu_t, *cols)

    raw = rng.standard_normal((trials, n, k))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.einsum("bkk->bk", r))[:, None, :]
    vals = values(q)
    best = np.argmax(np.abs(vals))
    best_q, best_val = q[best], abs(float(vals[best]))

    # a few steps of projected gradient ascent on mu(plane)^2 from the best sample
    step = 0.2
    cur = best_q
    for _ in range(COMASS_ASCENT_STEPS):
        cols = [cur[:, a] for a in range(k)]
        val = np.einsum(f"{spec}," + ",".join(spec) + "->", mu_t, *cols)
        grad = np.zeros_like(cur)
        for a in range(k):
            other = spec[:a] + spec[a + 1:]
            grad[:, a] = np.einsum(
                f"{spec}," + ",".join(other) + f"->{spec[a]}", mu_t, *(cols[:a] + cols[a + 1:])
            )
        trial_q, r = np.linalg.qr(cur + step * (2 * val) * grad)
        trial_q = trial_q * np.sign(np.diag(r))[None, :]
        new_val = abs(float(np.einsum(f"{spec}," + ",".join(spec) + "->",
                                      mu_t, *[trial_q[:, a] for a in range(k)])))
        if new_val > best_val:
            best_val, cur = new_val, trial_q
        else:
            step *= 0.5
            if step < 1e-6:
                break
    return best_val
