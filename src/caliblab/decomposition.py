"""Irreducible form-type decompositions for G2 and Spin(7).

The linearized metric maps h(.) are the contractions

    3-forms on R^7:  h_il = (eta^_il + eta^_li)/4  - Tr(eta^)/18 g_il,
    4-forms on R^7:  h_il = (rho^_il + rho^_li)/12 - Tr(rho^)/48 g_il,
    4-forms on R^8:  h_im = (sig^_im + sig^_mi)/24 - Tr(sig^)/112 g_im,
    trace-free part: h0_im = (sig^_im + sig^_mi)/24 - Tr(sig^)/96 g_im,

where eta^_pq = eta_pij phi_qij, rho^_pq = rho_pijk psi_qijk and
sig^_pq = sig_pijk Phi_qijk.  All maps here are linear with integer-tensor
kernels, so they are precomputed once as dense matrices on the coefficient
vectors and reused in batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import (
    DegenerateInputError,
    DimensionError,
    KForm,
    _star_table,
    _tensor_table,
    n_coeffs,
    wedge_coeffs,
)
from .structures import standard_kit


# (sym, trace) coefficients of each h-map: h = sym (hat + hat^T) - trace Tr(hat) g
H_MAP_COEFFS = {
    "h_from_3form": (1.0 / 4.0, 1.0 / 18.0),
    "h_from_4form": (1.0 / 12.0, 1.0 / 48.0),
    "h_sp7": (1.0 / 24.0, 1.0 / 112.0),
    "h0_sp7": (1.0 / 24.0, 1.0 / 96.0),
}


# ---------------------------------------------------------------------------
# precomputed linear maps on coefficient vectors

def _phi_psi():
    """The float tensors of phi and psi, from their kits."""
    return standard_kit("associative").tensor, standard_kit("coassociative").tensor


def _basis_contraction(k: int, form: np.ndarray, free: int) -> np.ndarray:
    """Contractions of the full tensor of each basis k-form, its first `free`
    indices left open, with the last k - free indices of `form`: entry [c, i, q]
    has the open index i (none when free = 0) and form's open indices q.  Each
    nonzero entry of the basis tensors (from _tensor_table) scatters one signed
    row of `form`, so no stack of basis tensors is built."""
    n = form.shape[0]
    flat_pos, sg, src = _tensor_table(n, k)
    open_idx, closed = np.divmod(flat_pos, n ** (k - free))
    rows = form.reshape(-1, n ** (k - free))
    out = np.zeros((n_coeffs(n, k), n ** free, rows.shape[0]))
    np.add.at(out, (src, open_idx), sg[:, None] * rows[:, closed].T)
    return out


@lru_cache(maxsize=None)
def _g2_maps():
    phi_t, psi_t = _phi_psi()
    hat3 = _basis_contraction(3, phi_t, 1).reshape(35, 49).T  # eta^ = hat3 @ coeffs
    hat4 = _basis_contraction(4, psi_t, 1).reshape(35, 49).T
    # A_ij -> coefficients of (1/2) A_ij e_i ^ (e_j _| phi)  (and psi): the
    # transposed hat maps over 2 (k - 1)!, since a hat entry sums the (k - 1)!
    # orderings of the indices it contracts
    asm3 = hat3.T / 4.0
    asm4 = hat4.T / 12.0
    # X recovery from the residual pieces
    x3 = _basis_contraction(3, psi_t, 0).reshape(35, 7).T / 12.0  # X_q = (eta7)_ijk psi_qijk / 12
    x4 = _basis_contraction(4, phi_t, 1).reshape(35, 7).T / 12.0  # X_i = (rho7)_ijkl phi_jkl / 12
    return hat3, hat4, asm3, asm4, x3, x4


@lru_cache(maxsize=None)
def _sp7_maps():
    Phi_t = standard_kit("cayley").tensor
    hat = _basis_contraction(4, Phi_t, 1).reshape(70, 64).T
    asm = hat.T / 12.0  # A_ij -> coefficients of (1/2) A_ij e_i ^ (e_j _| Phi), as asm4
    # star on 4-forms as a 70x70 matrix: basis form c goes to +-(its complement)
    perm, sg = _star_table(8, 4)
    star = np.zeros((70, 70))
    star[perm, np.arange(70)] = sg
    # Omega^2_7 from the eigenspaces of beta_kl -> beta_rs Phi_rskl
    i, j = pairs = np.triu_indices(8, 1)  # lexicographic pairs, the coefficient order
    t2 = Phi_t[i[None], j[None], i[:, None], j[:, None]]
    evals, evecs = np.linalg.eigh(t2)
    rounded = np.rint(evals).astype(int)
    seven = [v for v in set(rounded) if np.sum(rounded == v) == 7]
    if len(seven) != 1:
        raise RuntimeError("could not isolate the 7-dimensional 2-form eigenspace")
    basis2_7 = evecs[:, rounded == seven[0]]  # (28, 7)
    # push Omega^2_7 through beta -> (1/2) beta_ij e_i ^ (e_j _| Phi)
    skew_to_full = np.zeros((64, 28))
    skew_to_full[8 * i + j, np.arange(28)] = 1.0
    skew_to_full[8 * j + i, np.arange(28)] = -1.0
    image = asm @ skew_to_full @ basis2_7  # (70, 7)
    q7, _ = np.linalg.qr(image)
    beta_from_coeffs = np.linalg.pinv(asm @ skew_to_full) # 4-form coeffs -> pair coeffs
    return hat, asm, star, q7, beta_from_coeffs, pairs


# ---------------------------------------------------------------------------
# batched kernels (coefficient arrays in, symmetric matrices out)

def hat_eta_batch(coeffs: np.ndarray) -> np.ndarray:
    hat3 = _g2_maps()[0]
    return (np.atleast_2d(coeffs) @ hat3.T).reshape(-1, 7, 7)


def hat_rho_batch(coeffs: np.ndarray) -> np.ndarray:
    hat4 = _g2_maps()[1]
    return (np.atleast_2d(coeffs) @ hat4.T).reshape(-1, 7, 7)


def hat_sigma_batch(coeffs: np.ndarray) -> np.ndarray:
    hat = _sp7_maps()[0]
    return (np.atleast_2d(coeffs) @ hat.T).reshape(-1, 8, 8)


def _h_from_hat(hat: np.ndarray, sym_coeff: float, trace_coeff: float) -> np.ndarray:
    n = hat.shape[-1]
    sym = sym_coeff * (hat + np.swapaxes(hat, -1, -2))
    tr = np.trace(hat, axis1=-2, axis2=-1)
    return sym - trace_coeff * tr[..., None, None] * np.eye(n)


def h_from_3form_batch(coeffs: np.ndarray) -> np.ndarray:
    return _h_from_hat(hat_eta_batch(coeffs), *H_MAP_COEFFS["h_from_3form"])


def h_from_4form_batch(coeffs: np.ndarray) -> np.ndarray:
    return _h_from_hat(hat_rho_batch(coeffs), *H_MAP_COEFFS["h_from_4form"])


def h_sp7_batch(coeffs: np.ndarray) -> np.ndarray:
    return _h_from_hat(hat_sigma_batch(coeffs), *H_MAP_COEFFS["h_sp7"])


def h0_sp7_batch(coeffs: np.ndarray) -> np.ndarray:
    return _h_from_hat(hat_sigma_batch(coeffs), *H_MAP_COEFFS["h0_sp7"])


def project_35_7_batch(coeffs: np.ndarray) -> np.ndarray:
    _, _, star, q7, _, _ = _sp7_maps()
    c = np.atleast_2d(coeffs)
    anti = 0.5 * (c - c @ star.T)
    selfdual = 0.5 * (c + c @ star.T)
    part7 = (selfdual @ q7) @ q7.T
    return anti + part7


# ---------------------------------------------------------------------------
# split records

@dataclass(frozen=True)
class G2ThreeFormSplit:
    eta_1_27: KForm
    eta_7: KForm
    h: np.ndarray  # (7, 7)
    X: np.ndarray


@dataclass(frozen=True)
class G2FourFormSplit:
    rho_1_27: KForm
    rho_7: KForm
    h: np.ndarray  # (7, 7)
    X: np.ndarray


@dataclass(frozen=True)
class SP7FourFormSplit:
    sigma_1_35: KForm
    sigma_7: KForm
    sigma_27: KForm
    h: np.ndarray   # (8, 8)
    h0: np.ndarray  # (8, 8), trace-free
    beta: np.ndarray


def g2_split_3form(eta: KForm) -> G2ThreeFormSplit:
    """Split a 3-form on R^7 into its (1+27) and 7 parts with (h, X) data."""
    if (eta.n, eta.k) != (7, 3):
        raise DimensionError("g2_split_3form needs a 3-form on R^7")
    h = h_from_3form_batch(eta.coeffs)[0]
    asm3 = _g2_maps()[2]
    part = KForm(7, 3, asm3 @ h.reshape(49))
    resid = eta - part
    X = _g2_maps()[4] @ resid.coeffs
    return G2ThreeFormSplit(part, resid, h, X)


def g2_split_4form(rho: KForm) -> G2FourFormSplit:
    """Split a 4-form on R^7 into its (1+27) and 7 parts with (h, X) data."""
    if (rho.n, rho.k) != (7, 4):
        raise DimensionError("g2_split_4form needs a 4-form on R^7")
    h = h_from_4form_batch(rho.coeffs)[0]
    asm4 = _g2_maps()[3]
    part = KForm(7, 4, asm4 @ h.reshape(49))
    resid = rho - part
    X = _g2_maps()[5] @ resid.coeffs
    return G2FourFormSplit(part, resid, h, X)


def sp7_split_4form(sigma: KForm) -> SP7FourFormSplit:
    """Split a 4-form on R^8 into (1+35) + 7 + 27 with (h, h0, beta) data."""
    if (sigma.n, sigma.k) != (8, 4):
        raise DimensionError("sp7_split_4form needs a 4-form on R^8")
    hat, asm, star, q7, beta_from, pairs = _sp7_maps()
    h = h_sp7_batch(sigma.coeffs)[0]
    h0 = h - np.trace(h) / 8.0 * np.eye(8)
    part_1_35 = KForm(8, 4, asm @ h.reshape(64))
    resid = sigma - part_1_35
    part7 = KForm(8, 4, (resid.coeffs @ q7) @ q7.T)
    part27 = resid - part7
    pair_coeffs = beta_from @ part7.coeffs
    beta = np.zeros((8, 8))
    beta[pairs] = pair_coeffs
    beta[pairs[::-1]] = -pair_coeffs
    return SP7FourFormSplit(part_1_35, part7, part27, h, h0, beta)


def project_35_7(sigma: KForm) -> KForm:
    """Orthogonal projection of a 4-form on R^8 onto the 35 + 7 types."""
    if (sigma.n, sigma.k) != (8, 4):
        raise DimensionError("project_35_7 needs a 4-form on R^8")
    return KForm(8, 4, project_35_7_batch(sigma.coeffs)[0])


# ---------------------------------------------------------------------------
# forward assemblies (used as independent oracles in tests)

def three_form_from_h_x(h: np.ndarray, X: np.ndarray) -> KForm:
    """2 eta_ijk = h_ip phi_pjk + h_jp phi_ipk + h_kp phi_ijp + X_p psi_pijk."""
    phi_t, psi_t = _phi_psi()
    t = (np.einsum("ip,pjk->ijk", h, phi_t)
         + np.einsum("jp,ipk->ijk", h, phi_t)
         + np.einsum("kp,ijp->ijk", h, phi_t)
         + np.einsum("p,pijk->ijk", X, psi_t)) / 2.0
    return KForm.from_tensor(t)


def four_form_from_h_x(h: np.ndarray, X: np.ndarray) -> KForm:
    """2 rho = (h acting on psi) + X ^ phi, written out index by index."""
    phi_t, psi_t = _phi_psi()
    t = (np.einsum("ip,pjkl->ijkl", h, psi_t)
         + np.einsum("jp,ipkl->ijkl", h, psi_t)
         + np.einsum("kp,ijpl->ijkl", h, psi_t)
         + np.einsum("lp,ijkp->ijkl", h, psi_t)
         + np.einsum("i,jkl->ijkl", X, phi_t)
         - np.einsum("j,ikl->ijkl", X, phi_t)
         + np.einsum("k,ijl->ijkl", X, phi_t)
         - np.einsum("l,ijk->ijkl", X, phi_t)) / 2.0
    return KForm.from_tensor(t)


def four_form_from_a_27(A: np.ndarray, sigma27: KForm) -> KForm:
    """2 sigma = (A acting on Phi) + 2 sigma_27 with A = h + beta."""
    Phi_t = standard_kit("cayley").tensor
    t = (np.einsum("ip,pjkl->ijkl", A, Phi_t)
         + np.einsum("jp,ipkl->ijkl", A, Phi_t)
         + np.einsum("kp,ijpl->ijkl", A, Phi_t)
         + np.einsum("lp,ijkp->ijkl", A, Phi_t)) / 2.0
    return KForm.from_tensor(t) + sigma27


# ---------------------------------------------------------------------------
# nonlinear metric from a G2 3-form

_METRIC_SCALE = 24.0 ** (2.0 / 9.0)


@lru_cache(maxsize=None)
def _metric_tables():
    """Precomputed contractions for the cubic form-to-metric pipeline."""
    from .exterior import _interior_table, _wedge_table

    ax, pi, po, sg = _interior_table(7, 3)
    int_maps = np.zeros((7, 21, 35))
    int_maps[ax, po, pi] = sg
    ia25, ib25, sg25 = _wedge_table(7, 2, 5)
    pair = np.zeros((21, 21))
    pair[ia25, ib25] = sg25
    return int_maps, pair


def metric_from_3form(coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Riemannian metrics induced by nondegenerate 3-forms on R^7, given by
    coefficient rows (..., 35).

    Uses the up-to-scale bilinear form B_ij vol = -(1/144) (e_i _| f) ^
    (e_j _| f) ^ f, normalized so the standard form returns the Euclidean
    metric.  Returns (metrics (..., 7, 7), volume scales sqrt(det g) (...)).
    """
    v = np.asarray(coeffs, float)
    if v.shape[-1:] != (35,):
        raise DimensionError("metric_from_3form needs 3-form coefficient rows (..., 35)")
    int_maps, pair = _metric_tables()
    contractions = np.einsum("ipq,...q->...ip", int_maps, v)   # (..., 7, 21): e_i _| phi
    rows = np.broadcast_to(v[..., None, :], contractions.shape[:-1] + (35,))
    fives = wedge_coeffs(contractions, rows, 7, 2, 3)            # (e_j _| phi) ^ phi
    b = -(contractions @ pair @ np.swapaxes(fives, -1, -2)) / 144.0
    b = 0.5 * (b + np.swapaxes(b, -1, -2))
    det = np.linalg.det(b)
    if np.any(det <= 0):
        raise DegenerateInputError("degenerate 3-form: det of the induced form is not positive")
    g = _METRIC_SCALE * b * (det ** (-1.0 / 9.0))[..., None, None]
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise DegenerateInputError(
            "degenerate 3-form: induced form is not positive definite") from None
    return g, np.sqrt(np.linalg.det(g))
