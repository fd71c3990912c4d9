"""Standard U(m), G2 and Spin(7) calibration structures on flat space.

Sign conventions are pinned to one fixed adapted-frame normal form for each
structure form; every derived table (cross products, Hodge duals, contraction
identities) is generated from these and unit-tested against quoted
coefficients, since the literature has competing conventions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import (
    DimensionError,
    KForm,
    OrientedFrame,
    SymTensor2,
    evaluate,
    gram_schmidt_adapt,
    hodge_star,
    wedge,
)

TOL_CALIB = 1e-8

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
    f = KForm.from_components(n, k, {idx: float(s) for idx, s in terms})
    return f


def _int_tensor(form: KForm) -> np.ndarray:
    t = form.to_tensor()
    return np.rint(t).astype(np.int64)


# ---------------------------------------------------------------------------
# kits

@dataclass(frozen=True)
class UmKit:
    """Standard U(m) structure on R^{2m}, calibrating 2k-dimensional planes."""
    m: int
    k: int

    case = "um"

    @property
    def n(self) -> int:
        return 2 * self.m

    @property
    def calibration_dim(self) -> int:
        return 2 * self.k

    @property
    def J(self) -> np.ndarray:
        j = np.zeros((self.n, self.n))
        for a in range(self.m):
            j[2 * a + 1, 2 * a] = 1.0
            j[2 * a, 2 * a + 1] = -1.0
        return j

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

    @property
    def metric(self) -> SymTensor2:
        return SymTensor2.identity(self.n)

    orientation = 1


@dataclass(frozen=True)
class G2Kit:
    """Standard G2 structure on R^7; flavor picks the calibration (phi or psi)."""
    flavor: str  # "associative" | "coassociative"

    n = 7
    orientation = 1

    @property
    def case(self) -> str:
        return self.flavor

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
    def metric(self) -> SymTensor2:
        return SymTensor2.identity(7)

    @property
    def phi_tensor(self) -> np.ndarray:
        return _g2_tensors()[0]

    @property
    def psi_tensor(self) -> np.ndarray:
        return _g2_tensors()[1]


@dataclass(frozen=True)
class Spin7Kit:
    """Standard Spin(7) structure on R^8; Phi is self-dual and calibrates Cayley 4-planes."""

    case = "cayley"
    n = 8
    calibration_dim = 4
    orientation = 1

    @property
    def Phi(self) -> KForm:
        return _spin7_form()

    @property
    def mu(self) -> KForm:
        return self.Phi

    @property
    def metric(self) -> SymTensor2:
        return SymTensor2.identity(8)

    @property
    def Phi_tensor(self) -> np.ndarray:
        return _spin7_tensor()


StructureKit = UmKit | G2Kit | Spin7Kit


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


# ---------------------------------------------------------------------------
# cross products

def cross_2fold(kit: G2Kit, X, Y) -> np.ndarray:
    """The 7-dimensional cross product: <X x Y, Z> = phi(X, Y, Z)."""
    return np.einsum("ijk,i,j->k", kit.phi_tensor.astype(float), X, Y)


def chi_3fold(kit: G2Kit, X, Y, Z) -> np.ndarray:
    """The vector-valued 3-form chi: <chi(X,Y,Z), W> = psi(X, Y, Z, W)."""
    return np.einsum("ijkl,i,j,k->l", kit.psi_tensor.astype(float), X, Y, Z)


def cayley_cross(kit: Spin7Kit, X, Y, Z) -> np.ndarray:
    """The 3-fold cross product on R^8: <P(X,Y,Z), W> = Phi(X, Y, Z, W)."""
    return np.einsum("ijkl,i,j,k->l", kit.Phi_tensor.astype(float), X, Y, Z)


# ---------------------------------------------------------------------------
# exact contraction identities

def contraction_identity_check(kit) -> dict[str, int]:
    """Max absolute integer violation of each contraction identity family."""
    if isinstance(kit, G2Kit):
        phi, psi = kit.phi_tensor, kit.psi_tensor
        return g2_identity_violations(phi, psi)
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


def associative_equality_residuals(kit: G2Kit, xs, ys, zs) -> np.ndarray:
    """Batched residuals of the associative equality over triples of rows."""
    phi_t = kit.phi_tensor.astype(float)
    psi_t = kit.psi_tensor.astype(float)
    chi = np.einsum("ijkl,bi,bj,bk->bl", psi_t, xs, ys, zs)
    phi_vals = np.einsum("ijk,bi,bj,bk->b", phi_t, xs, ys, zs)
    stacks = np.stack([xs, ys, zs], axis=1)
    grams = np.linalg.det(stacks @ np.swapaxes(stacks, 1, 2))
    return np.einsum("bl,bl->b", chi, chi) + phi_vals**2 - grams


def coassociative_equality_residuals(kit: G2Kit, xs, ys, zs, ws) -> np.ndarray:
    """Batched residuals of the coassociative equality over quadruples of rows."""
    phi_t = kit.phi_tensor.astype(float)
    psi_t = kit.psi_tensor.astype(float)
    psi_vals = np.einsum("ijkl,bi,bj,bk,bl->b", psi_t, xs, ys, zs, ws)

    def p(a, b, c):
        return np.einsum("ijk,bi,bj,bk->b", phi_t, a, b, c)

    vec = (p(ys, zs, ws)[:, None] * xs - p(xs, zs, ws)[:, None] * ys
           + p(xs, ys, ws)[:, None] * zs - p(xs, ys, zs)[:, None] * ws)
    stacks = np.stack([xs, ys, zs, ws], axis=1)
    grams = np.linalg.det(stacks @ np.swapaxes(stacks, 1, 2))
    return psi_vals**2 + np.einsum("bl,bl->b", vec, vec) - grams


# ---------------------------------------------------------------------------
# calibration predicates

@dataclass(frozen=True)
class CalibrationReport:
    plane: OrientedFrame
    value: float
    defect: float
    is_calibrated: bool


def invariance_defect(kit, tangent: np.ndarray) -> float:
    """Squared-norm failure of the tangent space to be preserved by J / x / chi / P."""
    n = kit.n
    p_normal = np.eye(n) - tangent.T @ tangent
    k = tangent.shape[0]
    if isinstance(kit, UmKit):
        return float(sum(np.linalg.norm(p_normal @ (kit.J @ f)) ** 2 for f in tangent))
    if isinstance(kit, G2Kit) and kit.flavor == "associative":
        total = 0.0
        for b in range(k):
            for a in range(k):
                v = cross_2fold(kit, tangent[b], tangent[a])
                total += np.linalg.norm(p_normal @ v) ** 2
        return float(total)
    if isinstance(kit, G2Kit):
        total = 0.0
        for a in range(k):
            for b in range(a + 1, k):
                for c in range(b + 1, k):
                    v = chi_3fold(kit, tangent[a], tangent[b], tangent[c])
                    total += np.linalg.norm(p_normal @ v) ** 2
        return float(total)
    if isinstance(kit, Spin7Kit):
        total = 0.0
        for a in range(k):
            for b in range(a + 1, k):
                for c in range(b + 1, k):
                    v = cayley_cross(kit, tangent[a], tangent[b], tangent[c])
                    total += np.linalg.norm(p_normal @ v) ** 2
        return float(total)
    raise ValueError("unknown kit")


def calibration_report(kit, tangent_basis, tol: float = TOL_CALIB) -> CalibrationReport:
    """Evaluate the calibration form and the invariance defect on a k-plane."""
    frame = gram_schmidt_adapt(tangent_basis, kit.metric)
    if frame.k != kit.calibration_dim:
        raise DimensionError(
            f"{kit.case} calibrates {kit.calibration_dim}-planes, got {frame.k}"
        )
    value = evaluate(kit.mu, frame.tangent)
    defect = invariance_defect(kit, frame.tangent)
    return CalibrationReport(frame, value, defect, defect < tol)


def comass_sample(kit, trials: int, seed: int = 0, ascent_steps: int = 60) -> float:
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
    for _ in range(ascent_steps):
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
