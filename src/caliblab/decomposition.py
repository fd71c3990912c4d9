"""Irreducible form-type decompositions for G2 and Spin(7).

The linearized metric maps h(.) are the contractions

    3-forms on R^7:  h_il = (eta^_il + eta^_li)/4  - Tr(eta^)/18 g_il,
    4-forms on R^7:  h_il = (rho^_il + rho^_li)/12 - Tr(rho^)/48 g_il,
    4-forms on R^8:  h_im = (sig^_im + sig^_mi)/24 - Tr(sig^)/112 g_im,
    trace-free part: h0_im = (sig^_im + sig^_mi)/24 - Tr(sig^)/96 g_im,

where eta^_pq = eta_pij phi_qij, rho^_pq = rho_pijk psi_qijk and
sig^_pq = sig_pijk Phi_qijk.  All maps here are linear with integer-tensor
kernels, so they are precomputed once as dense matrices on the coefficient
vectors.  A form is its coefficient row; every kernel maps rows
(..., C(n, k)) and keeps their leading shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import (
    DegenerateInputError,
    DimensionError,
    _interior_maps,
    _star_table,
    _tensor_table,
    _wedge_table,
    from_tensor,
    n_coeffs,
    to_tensor,
    wedge,
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
def _g2_maps(k: int):
    """(hat, asm, x) of k-forms on R^7, k = 3 or 4: the hat map (49, 35) with
    eta^ = hat @ coeffs, the assembly map (35, 49) with A_ij -> coefficients of
    (1/2) A_ij e_i ^ (e_j _| phi) (psi for k = 4), and the X recovery (7, 35)
    from the 7 part."""
    phi_t, psi_t = _phi_psi()
    if k == 3:
        hat = _basis_contraction(3, phi_t, 1).reshape(35, 49).T
        x = _basis_contraction(3, psi_t, 0).reshape(35, 7).T / 12.0  # X_q = (eta7)_ijk psi_qijk / 12
    else:
        hat = _basis_contraction(4, psi_t, 1).reshape(35, 49).T
        x = _basis_contraction(4, phi_t, 1).reshape(35, 7).T / 12.0  # X_i = (rho7)_ijkl phi_jkl / 12
    # the transposed hat map over 2 (k - 1)!, since a hat entry sums the
    # (k - 1)! orderings of the indices it contracts
    return hat, hat.T / (2 * math.factorial(k - 1)), x


@lru_cache(maxsize=None)
def _sp7_maps():
    Phi_t = standard_kit("cayley").tensor
    hat = _basis_contraction(4, Phi_t, 1).reshape(70, 64).T
    asm = hat.T / 12.0  # A_ij -> coefficients of (1/2) A_ij e_i ^ (e_j _| Phi), as in G2
    # star on 4-forms as a 70x70 matrix: basis form c goes to +-(its complement)
    perm, sg = _star_table(8, 4)
    star = np.zeros((70, 70))
    star[perm, np.arange(70)] = sg
    # Omega^2_7 from the eigenspaces of beta_kl -> beta_rs Phi_rskl
    i, j = np.triu_indices(8, 1)  # lexicographic pairs, the coefficient order
    t2 = Phi_t[i[None], j[None], i[:, None], j[:, None]]
    evals, evecs = np.linalg.eigh(t2)
    rounded = np.rint(evals).astype(int)
    values, counts = np.unique(rounded, return_counts=True)
    if np.count_nonzero(counts == 7) != 1:
        found = dict(zip(values.tolist(), counts.tolist()))
        raise RuntimeError("could not isolate the 7-dimensional 2-form eigenspace: "
                           f"multiplicities of the rounded eigenvalues are {found}")
    basis2_7 = evecs[:, rounded == values[counts == 7][0]]  # (28, 7)
    # push Omega^2_7 through beta -> (1/2) beta_ij e_i ^ (e_j _| Phi)
    skew_to_full = np.zeros((64, 28))
    skew_to_full[8 * i + j, np.arange(28)] = 1.0
    skew_to_full[8 * j + i, np.arange(28)] = -1.0
    image = asm @ skew_to_full @ basis2_7  # (70, 7)
    q7, _ = np.linalg.qr(image)
    beta_from_coeffs = np.linalg.pinv(asm @ skew_to_full) # 4-form coeffs -> pair coeffs
    return hat, asm, star, q7, beta_from_coeffs


# ---------------------------------------------------------------------------
# kernels: coefficient rows (..., C(n, k)) in, the leading shape kept

def _hat(coeffs, table: np.ndarray, n: int) -> np.ndarray:
    coeffs = np.asarray(coeffs)
    return (coeffs @ table.T).reshape(coeffs.shape[:-1] + (n, n))


def hat_eta(coeffs) -> np.ndarray:
    """eta^ (..., 7, 7) of 3-form rows (..., 35)."""
    return _hat(coeffs, _g2_maps(3)[0], 7)


def hat_rho(coeffs) -> np.ndarray:
    """rho^ (..., 7, 7) of 4-form rows (..., 35) on R^7."""
    return _hat(coeffs, _g2_maps(4)[0], 7)


def hat_sigma(coeffs) -> np.ndarray:
    """sigma^ (..., 8, 8) of 4-form rows (..., 70) on R^8."""
    return _hat(coeffs, _sp7_maps()[0], 8)


def _h_from_hat(hat: np.ndarray, sym_coeff: float, trace_coeff: float) -> np.ndarray:
    n = hat.shape[-1]
    sym = sym_coeff * (hat + np.swapaxes(hat, -1, -2))
    tr = np.trace(hat, axis1=-2, axis2=-1)
    return sym - trace_coeff * tr[..., None, None] * np.eye(n)


def h_from_3form(coeffs) -> np.ndarray:
    return _h_from_hat(hat_eta(coeffs), *H_MAP_COEFFS["h_from_3form"])


def h_from_4form(coeffs) -> np.ndarray:
    return _h_from_hat(hat_rho(coeffs), *H_MAP_COEFFS["h_from_4form"])


def h_sp7(coeffs) -> np.ndarray:
    return _h_from_hat(hat_sigma(coeffs), *H_MAP_COEFFS["h_sp7"])


def h0_sp7(coeffs) -> np.ndarray:
    return _h_from_hat(hat_sigma(coeffs), *H_MAP_COEFFS["h0_sp7"])


def project_35_7(coeffs) -> np.ndarray:
    """Orthogonal projection of 4-form rows (..., 70) on R^8 onto the 35 + 7 types."""
    _, _, star, q7, _ = _sp7_maps()
    c = np.asarray(coeffs)
    anti = 0.5 * (c - c @ star.T)
    selfdual = 0.5 * (c + c @ star.T)
    part7 = (selfdual @ q7) @ q7.T
    return anti + part7


# ---------------------------------------------------------------------------
# splits: coefficient rows in, records of rows out

@dataclass(frozen=True)
class G2Split:
    """A G2 split of k-form rows (..., 35) on R^7, k = 3 or 4."""
    part_1_27: np.ndarray
    part_7: np.ndarray
    h: np.ndarray  # (..., 7, 7)
    X: np.ndarray  # (..., 7)


@dataclass(frozen=True)
class Sp7Split:
    """A Spin(7) split of 4-form rows (..., 70) on R^8."""
    sigma_1_35: np.ndarray
    sigma_7: np.ndarray
    sigma_27: np.ndarray
    h: np.ndarray   # (..., 8, 8)
    h0: np.ndarray  # (..., 8, 8), trace-free
    beta: np.ndarray  # (..., 8, 8), skew


def g2_split(rows, k: int) -> G2Split:
    """Split 3-form (k = 3) or 4-form (k = 4) rows on R^7 into their (1+27)
    and 7 parts with (h, X) data."""
    if k not in (3, 4):
        raise DimensionError(f"g2_split needs 3- or 4-forms on R^7, got k={k}")
    rows = np.asarray(rows, float)
    _, asm, x = _g2_maps(k)
    h = (h_from_3form if k == 3 else h_from_4form)(rows)
    part = h.reshape(h.shape[:-2] + (49,)) @ asm.T
    resid = rows - part
    return G2Split(part, resid, h, resid @ x.T)


def sp7_split(rows) -> Sp7Split:
    """Split 4-form rows on R^8 into (1+35) + 7 + 27 with (h, h0, beta) data."""
    rows = np.asarray(rows, float)
    _, asm, _, q7, beta_from = _sp7_maps()
    h = h_sp7(rows)
    part_1_35 = h.reshape(h.shape[:-2] + (64,)) @ asm.T
    resid = rows - part_1_35
    part7 = (resid @ q7) @ q7.T
    beta = to_tensor(part7 @ beta_from.T, 8, 2)  # beta's pair coefficients are a 2-form row
    return Sp7Split(part_1_35, part7, resid - part7, h, h0_sp7(rows), beta)


# ---------------------------------------------------------------------------
# forward assemblies (used as independent oracles in tests)

def three_form_from_h_x(h: np.ndarray, X: np.ndarray) -> np.ndarray:
    """2 eta_ijk = h_ip phi_pjk + h_jp phi_ipk + h_kp phi_ijp + X_p psi_pijk."""
    phi_t, psi_t = _phi_psi()
    t = (np.einsum("ip,pjk->ijk", h, phi_t)
         + np.einsum("jp,ipk->ijk", h, phi_t)
         + np.einsum("kp,ijp->ijk", h, phi_t)
         + np.einsum("p,pijk->ijk", X, psi_t)) / 2.0
    return from_tensor(t)


def four_form_from_h_x(h: np.ndarray, X: np.ndarray) -> np.ndarray:
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
    return from_tensor(t)


def four_form_from_a_27(A: np.ndarray, sigma27: np.ndarray) -> np.ndarray:
    """2 sigma = (A acting on Phi) + 2 sigma_27 with A = h + beta."""
    Phi_t = standard_kit("cayley").tensor
    t = (np.einsum("ip,pjkl->ijkl", A, Phi_t)
         + np.einsum("jp,ipkl->ijkl", A, Phi_t)
         + np.einsum("kp,ijpl->ijkl", A, Phi_t)
         + np.einsum("lp,ijkp->ijkl", A, Phi_t)) / 2.0
    return from_tensor(t) + sigma27


# ---------------------------------------------------------------------------
# nonlinear metric from a G2 3-form

_METRIC_SCALE = 24.0 ** (2.0 / 9.0)


@lru_cache(maxsize=None)
def _metric_tables():
    """Precomputed contractions for the cubic form-to-metric pipeline."""
    int_maps = _interior_maps(7, 3)
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
    fives = wedge(contractions, rows, 7, 2, 3)            # (e_j _| phi) ^ phi
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
