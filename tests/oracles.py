"""Reference implementations that tests compare the library against.

They are written out index by index, or sample by brute force, and share no
code with the kernels they check beyond the structure tensors and the
tensor/row conversions of exterior.
"""
import numpy as np

from caliblab.decomposition import _phi_psi
from caliblab.exterior import from_tensor, to_tensor
from caliblab.structures import standard_kit

# projected gradient-ascent steps of comass_sample after the random planes
COMASS_ASCENT_STEPS = 60


# ---------------------------------------------------------------------------
# forward assemblies: a form from its decomposition data, index by index

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
# comass sampling (a calibration has comass 1)

def comass_sample(kit, trials: int, seed: int = 0) -> float:
    """Max of mu over sampled oriented k-planes, refined by projected gradient ascent."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n, k = kit.n, kit.calibration_dim
    mu_t = to_tensor(kit.mu, n, k)
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
