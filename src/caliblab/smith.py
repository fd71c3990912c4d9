"""k-energy, k-volume, calibration integral, and the map-functional variations.

A MapTriple is a map u from a parameter box (with its own metric field g)
into flat R^n carrying a calibration kit.  The three functionals are related
by E >= V >= integral of u*mu, with equality characterized by weak
conformality and by the calibrated-image condition respectively.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exterior import DegenerateInputError, minors, orthonormal_frames
from .submanifold import Patch, QuadratureRule

# points per axis of the uniform grid the residual sups sample beside the nodes
SAMPLE_REFINE = 5


@dataclass(frozen=True)
class MapTriple:
    """Map u (as a Patch), a domain metric field g(x), and a calibration kit."""
    patch: Patch
    g_field: Callable          # x -> (k, k) positive definite
    kit: object                # a Kit: the row mu of degree calibration_dim = k

    @property
    def k(self) -> int:
        return self.patch.k

    def domain_metric(self, x) -> np.ndarray:
        g = np.asarray(self.g_field(x), float)
        return 0.5 * (g + g.T)


def _jacobians(triple: MapTriple, xs: np.ndarray) -> np.ndarray:
    """Jacobians (N, n, k) at parameter rows xs from one row evaluation; an
    affine map's single Jacobian is broadcast to every row."""
    j = triple.patch.jacobians(xs)
    return np.broadcast_to(j, (xs.shape[0],) + j.shape[1:])


def _densities(triple: MapTriple, x, j):
    """(|du|^2, sqrt(det g), pulled-back metric A, g) at a parameter point with
    Jacobian j."""
    a = j.T @ j
    g = triple.domain_metric(x)
    det_g = np.linalg.det(g)
    if det_g <= 0:
        raise DegenerateInputError(f"domain metric degenerate at {x}")
    du2 = float(np.trace(np.linalg.solve(g, a)))
    return du2, math.sqrt(det_g), a, g


def k_energy(triple: MapTriple, rule: QuadratureRule) -> float:
    """(1/sqrt(k)^k) integral of |du|^k vol_g; conformally invariant in g."""
    k = triple.k
    vals = np.empty(rule.nodes.shape[0])
    for i, (x, j) in enumerate(zip(rule.nodes, _jacobians(triple, rule.nodes))):
        du2, sg, _, _ = _densities(triple, x, j)
        vals[i] = max(du2, 0.0) ** (k / 2.0) * sg
    return rule.integrate(vals) / math.sqrt(k) ** k


def k_volume(triple: MapTriple, rule: QuadratureRule) -> float:
    """Integral of |d1 u ^ ... ^ dk u|; non-immersion points contribute zero."""
    vals = np.empty(rule.nodes.shape[0])
    for i, j in enumerate(_jacobians(triple, rule.nodes)):
        vals[i] = math.sqrt(max(np.linalg.det(j.T @ j), 0.0))
    return rule.integrate(vals)


def calibration_integral(triple: MapTriple, rule: QuadratureRule) -> float:
    """Integral of u*mu over the domain."""
    mu = triple.kit.mu
    if triple.kit.calibration_dim != triple.k:
        raise DegenerateInputError(f"calibration degree {triple.kit.calibration_dim} does "
                                   f"not match the domain dimension {triple.k}")
    vals = np.empty(rule.nodes.shape[0])
    for i, j in enumerate(_jacobians(triple, rule.nodes)):
        vals[i] = mu @ minors(j.T)
    return rule.integrate(vals)


def sample_points(triple: MapTriple, rule: QuadratureRule) -> np.ndarray:
    """Quadrature nodes plus a fixed uniform refinement grid."""
    box = triple.patch.box
    axes = [np.linspace(box.lo[a], box.hi[a], SAMPLE_REFINE) for a in range(box.k)]
    grids = np.meshgrid(*axes, indexing="ij")
    extra = np.stack([g.ravel() for g in grids], axis=-1)
    return np.vstack([rule.nodes, extra])


def conformality_residual(triple: MapTriple, rule: QuadratureRule) -> float:
    """Sup over samples of |u*gbar - (1/k)|du|^2 g| in g-orthonormal coordinates."""
    xs = sample_points(triple, rule)
    rows = [_densities(triple, x, j) for x, j in zip(xs, _jacobians(triple, xs))]
    du2, _, a, g = (np.array(col) for col in zip(*rows))
    c = orthonormal_frames(np.eye(triple.k), g)[0]  # g-orthonormal coordinate rows
    a_hat = c @ a @ np.swapaxes(c, -1, -2)
    dev = a_hat - (du2 / triple.k)[:, None, None] * np.eye(triple.k)
    return float(np.linalg.norm(dev, axis=(-2, -1)).max())


def smith_residual(triple: MapTriple, rule: QuadratureRule) -> tuple[float, float]:
    """(conformality residual, calibration-density residual); (0, 0) iff Smith."""
    mu = triple.kit.mu
    k = triple.k
    gaps = []
    xs = sample_points(triple, rule)
    for x, j in zip(xs, _jacobians(triple, xs)):
        du2, sg, _, _ = _densities(triple, x, j)
        pulled = mu @ minors(j.T)
        model = max(du2, 0.0) ** (k / 2.0) * sg / math.sqrt(k) ** k
        gaps.append(abs(pulled - model))
    return conformality_residual(triple, rule), float(np.max(gaps))  # np.max keeps a NaN


def energy_first_variation_domain(triple: MapTriple, h_field, rule: QuadratureRule) -> float:
    """d/dt of the k-energy along g_t = g + t h; zero for weakly conformal maps."""
    k = triple.k
    if k < 2:
        raise DegenerateInputError("domain variation of the energy needs k >= 2")
    vals = np.empty(rule.nodes.shape[0])
    for i, (x, j) in enumerate(zip(rule.nodes, _jacobians(triple, rule.nodes))):
        du2, sg, a, g = _densities(triple, x, j)
        h = np.asarray(h_field(x), float)
        target = -k * max(du2, 0.0) ** ((k - 2) / 2.0) * a + max(du2, 0.0) ** (k / 2.0) * g
        ginv_h = np.linalg.solve(g, h)
        ginv_t = np.linalg.solve(g, target)
        vals[i] = float(np.trace(ginv_h @ ginv_t)) * sg
    return rule.integrate(vals) / (2.0 * math.sqrt(k) ** k)


def energy_first_variation_target(triple: MapTriple, hbar_field, rule: QuadratureRule) -> float:
    """d/dt of the k-energy along gbar_t = gbar + t hbar on the target."""
    k = triple.k
    ys, jacs = triple.patch.rows(rule.nodes)
    vals = np.empty(rule.nodes.shape[0])
    for i, (x, y, j) in enumerate(zip(rule.nodes, ys, np.broadcast_to(jacs, ys.shape + (k,)))):
        du2, sg, _, g = _densities(triple, x, j)
        hbar = np.asarray(hbar_field(y), float)
        pulled = j.T @ hbar @ j
        vals[i] = max(du2, 0.0) ** ((k - 2) / 2.0) * float(np.trace(np.linalg.solve(g, pulled))) * sg
    return rule.integrate(vals) * k / (2.0 * math.sqrt(k) ** k)


def fd_energy_domain(triple: MapTriple, h_field, rule: QuadratureRule,
                     step: float = 1e-5):
    """Finite-difference oracle for the domain variation of the k-energy."""
    from .submanifold import fd_derivative

    def energy(t):
        shifted = MapTriple(
            triple.patch,
            lambda x: triple.domain_metric(x) + t * np.asarray(h_field(x), float),
            triple.kit,
        )
        return k_energy(shifted, rule)

    return fd_derivative(energy, 0.0, step)
