"""Embedded patches, quadrature, volume, normal projectors and mean curvature,
the distance-squared jet, and finite-difference utilities.

A Patch is a parametrized k-dimensional piece of submanifold in R^n over an
axis-aligned box, evaluated by one row formula that gives positions and
Jacobians for stacked parameter rows; Hessians come from a second formula where
one is given.  Catalog constructors provide both analytically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .exterior import DegenerateInputError, DimensionError
from .structures import _blockwise

CLOSEST_POINT_TOL = 1e-12
CLOSEST_POINT_MAX_ITER = 50
# seeds per axis of the closest-point search; slack of the parameter-box test
JET_SEED_GRID = 7
BOX_SLACK = 1e-12
# a tensor rule holds order**k nodes; larger rules are refused before any grid is built
MAX_QUAD_NODES = 10**6


class QuadratureSizeError(ValueError):
    pass


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def unit(k: int) -> "Box":
        return Box(np.zeros(k), np.ones(k))

    @staticmethod
    def make(lo, hi) -> "Box":
        return Box(np.asarray(lo, float), np.asarray(hi, float))

    @property
    def k(self) -> int:
        return self.lo.shape[0]

    def contains(self, x) -> bool:
        x = np.asarray(x, float)
        return bool(np.all(x >= self.lo - BOX_SLACK) and np.all(x <= self.hi + BOX_SLACK))


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi matrix
    of the Legendre recurrence, the weights twice the squared first components
    of its eigenvectors; both are symmetrised about 0."""
    k = np.arange(1, order)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    weights = 2.0 * vecs[0] ** 2
    nodes, weights = 0.5 * (nodes - nodes[::-1]), 0.5 * (weights + weights[::-1])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class QuadratureRule:
    """Tensorized Gauss-Legendre rule over a box; order q per axis."""

    def __init__(self, box: Box, order: int):
        if order < 1:
            raise ValueError("quadrature order must be >= 1")
        if order ** box.k > MAX_QUAD_NODES:
            raise QuadratureSizeError(
                f"quadrature order {order} on a {box.k}-dimensional domain needs "
                f"{order ** box.k} nodes, above the cap of {MAX_QUAD_NODES}")
        self.box = box
        self.order = order
        pts, wts = gauss_legendre(order)
        axes_p, axes_w = [], []
        for a in range(box.k):
            lo, hi = box.lo[a], box.hi[a]
            axes_p.append(0.5 * (hi - lo) * (pts + 1.0) + lo)
            axes_w.append(0.5 * (hi - lo) * wts)
        grids = np.meshgrid(*axes_p, indexing="ij")
        self.nodes = np.stack([g.ravel() for g in grids], axis=-1)
        wgrids = np.meshgrid(*axes_w, indexing="ij")
        self.weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)

    def integrate(self, values: np.ndarray) -> float:
        # fixed summation order keeps results independent of any upstream fan-out
        return float(np.dot(self.weights, np.asarray(values)))


@dataclass(frozen=True)
class Patch:
    """Parametrized embedded k-patch in R^n over an axis-aligned box.

    One row formula evaluates it: `_rows(xs)` maps parameter rows (N, k) to
    positions (N, n) and Jacobians (N, n, k).  An affine patch returns its
    single Jacobian as (1, n, k), which callers broadcast against the rows.
    `_hess(xs)`, where given, returns Hessians (N, n, k, k).  One point is one
    row: `patch.rows(x[None])`."""
    name: str
    k: int
    n: int
    box: Box
    closed: bool
    _rows: Callable = field(repr=False)
    _hess: Callable | None = field(default=None, repr=False)
    flat: bool = False                   # affine: constant Jacobian
    axes: tuple[int, ...] | None = None  # 0-based spanned axes when flat

    def rows(self, xs: np.ndarray):
        """Positions (N, n) and Jacobians (N, n, k), or (1, n, k) for an affine
        patch, at parameter rows xs (N, k): column a of Jacobian i is du/dx^a
        at row i."""
        return self._rows(np.asarray(xs, float))

    def positions(self, xs: np.ndarray) -> np.ndarray:
        return self.rows(xs)[0]

    def jacobians(self, xs: np.ndarray) -> np.ndarray:
        return self.rows(xs)[1]

    def hessians(self, xs: np.ndarray) -> np.ndarray:
        """Second derivatives d2u/dx^a dx^b at parameter rows xs (N, k), stacked
        as (N, n, k, k)."""
        if self._hess is None:
            raise ValueError(f"patch {self.name!r} has no Hessian formula")
        return np.asarray(self._hess(np.asarray(xs, float)), float)


# ---------------------------------------------------------------------------
# volume, normal projectors, mean curvature

def volume(patch: Patch, ambient_metric_field, rule: QuadratureRule) -> float:
    """Integral of sqrt(det g) over the domain box by quadrature.  The ambient
    metric field maps stacked positions (N, n) to metrics (N, n, n), or to one
    (n, n) that holds at every node; it is evaluated over the node blocks of
    the one block rule, so no array spans all nodes but the densities."""
    if not patch.box.contains(rule.nodes):
        raise ValueError("quadrature nodes outside the patch domain")

    def densities(xs):
        ys, j = patch.rows(xs)
        jt = np.swapaxes(j, -1, -2)
        g = jt @ j if ambient_metric_field is None else jt @ ambient_metric_field(ys) @ j
        det = np.linalg.det(g)  # one row for an affine patch under a constant metric
        if np.any(det <= 0):
            raise DegenerateInputError(
                f"induced metric degenerate at node {xs[np.argmax(det <= 0)]}")
        return np.sqrt(det)

    # the widest per-node temporary is an ambient metric (n, n)
    return rule.integrate(_blockwise(densities, patch.n * patch.n, rule.nodes))


def normal_projector(frames: np.ndarray) -> np.ndarray:
    """Euclidean normal projectors I - F^T F (..., n, n) of orthonormal tangent
    rows F (..., k, n), as `orthonormal_frames` gives them."""
    return np.eye(frames.shape[-1]) - np.swapaxes(frames, -1, -2) @ frames


def mean_curvature(frames: np.ndarray, jac: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """Mean curvature vectors (..., n) (Euclidean ambient metric) from the
    orthonormal tangent frames F (..., k, n) of the Jacobians (..., n, k) and
    the Hessians (..., n, k, k): the normal part t - (t F^T) F of t = g^ab d2u/dx^a dx^b.

    F = L^-1 J^T with L the Cholesky factor of g = J^T J, so F J = L^T and
    g^-1 = (F J)^-1 (F J)^-T: no second factorization of g."""
    c = np.linalg.inv(frames @ jac)  # L^-T; its columns are g-orthonormal directions
    trace = np.einsum("...nab,...ac,...bc->...n", hess, c, c)[..., None, :]
    return (trace - (trace @ np.swapaxes(frames, -1, -2)) @ frames)[..., 0, :]


# ---------------------------------------------------------------------------
# the distance-squared jet

@dataclass(frozen=True)
class JetOfF:
    """2-jet of F = (1/2) dist^2(., M) at an on-patch point, plus an extension."""
    point: np.ndarray
    value: float
    gradient: np.ndarray
    hessian: np.ndarray          # equals the normal projector on the patch
    evaluate: Callable           # F at off-patch ambient points
    closest_point: Callable      # parameter of the closest point


def _closest_parameter(patch: Patch, y: np.ndarray, seeds: np.ndarray):
    y = np.asarray(y, float)
    # the nearest seed; argmin keeps the first of equally near ones
    x = seeds[np.argmin(np.linalg.norm(patch.positions(seeds) - y, axis=-1))].copy()
    for _ in range(CLOSEST_POINT_MAX_ITER):
        (pos,), (j,) = patch.rows(x[None])
        try:
            step = np.linalg.solve(j.T @ j, j.T @ (pos - y))
        except np.linalg.LinAlgError:
            raise DegenerateInputError("closest-point normal equations are singular") from None
        x -= step
        if np.linalg.norm(step) < CLOSEST_POINT_TOL:
            return x
    (pos,), (j,) = patch.rows(x[None])
    resid = np.linalg.norm(j.T @ (pos - y))
    raise DegenerateInputError(
        f"closest-point iteration did not converge (gradient residual {resid:.3e})"
    )


def jet_of_F(patch: Patch, x) -> JetOfF:
    """On-patch jet of F (value 0, gradient 0, Hessian = normal projector).

    The Hessian is I - J g^-1 J^T by a direct solve, independent of the frames
    that `normal_projector` reads.  The off-patch evaluator computes
    F(y) = |y - closest point|^2 / 2 by Gauss-Newton, seeded from a coarse
    grid over the parameter box.
    """
    (p,), (j,) = patch.rows(np.asarray(x, float)[None])
    pn = np.eye(patch.n) - j @ np.linalg.solve(j.T @ j, j.T)
    axes = [np.linspace(patch.box.lo[a], patch.box.hi[a], JET_SEED_GRID)
            for a in range(patch.k)]
    grids = np.meshgrid(*axes, indexing="ij")
    seeds = np.stack([g.ravel() for g in grids], axis=-1)

    def closest(y):
        return _closest_parameter(patch, y, seeds)

    def f_value(y):
        y = np.asarray(y, float)
        cp = patch.positions(closest(y)[None])[0]
        return 0.5 * float(np.dot(y - cp, y - cp))

    return JetOfF(p, 0.0, np.zeros(patch.n), pn, f_value, closest)


# ---------------------------------------------------------------------------
# finite differences

def fd_derivative(f: Callable, t0: float, step: float = 1e-4,
                  richardson_levels: int = 2):
    """Central-difference d/dt with Richardson extrapolation.

    Returns (value, error_estimate); f may be scalar- or array-valued.
    """
    def central(s):
        return (np.asarray(f(t0 + s)) - np.asarray(f(t0 - s))) / (2.0 * s)

    row = [central(step / 2**j) for j in range(richardson_levels + 1)]
    diagonal = [row[0]]
    for level in range(1, richardson_levels + 1):
        factor = 4.0 ** level
        row = [(factor * row[j + 1] - row[j]) / (factor - 1.0)
               for j in range(len(row) - 1)]
        diagonal.append(row[0])
    value = diagonal[-1]
    err = (float(np.max(np.abs(diagonal[-1] - diagonal[-2])))
           if len(diagonal) > 1 else float("nan"))
    out = value if value.shape else float(value)
    return out, err


# ---------------------------------------------------------------------------
# patch catalog

def flat_plane(axes: tuple[int, ...], n: int, name: str | None = None,
               closed: bool = True) -> Patch:
    """Axis plane through the origin spanned by 1-based axes, unit box domain."""
    if len(set(axes)) != len(axes) or any(not 1 <= a <= n for a in axes):
        raise DimensionError(f"axes {axes} must be distinct and lie in 1..{n}")
    ax0 = tuple(a - 1 for a in axes)
    k = len(ax0)
    basis = np.zeros((n, k))
    for col, a in enumerate(ax0):
        basis[a, col] = 1.0

    label = name or ("plane-" + "".join(str(a) for a in axes) + f"-r{n}")
    return Patch(label, k, n, Box.unit(k), closed, lambda xs: (xs @ basis.T, basis[None]),
                 lambda xs: np.zeros((xs.shape[0], n, k, k)), flat=True, axes=ax0)


def graph_patch(axes: tuple[int, ...], n: int, waves, name: str,
                closed: bool = True) -> Patch:
    """Periodic graph over an axis plane: u(x) = x.axes + sum_j amp sin(2 pi k.x + c) e_m.

    waves: list of (normal_axis 1-based, amplitude, freq int vector (k,), phase).
    """
    ax0 = tuple(a - 1 for a in axes)
    k = len(ax0)
    basis = np.zeros((n, k))
    for col, a in enumerate(ax0):
        basis[a, col] = 1.0
    terms = [(m - 1, amp, np.asarray(freq, float), phase) for m, amp, freq, phase in waves]

    def rows(xs):
        pos = xs @ basis.T
        jac = np.repeat(basis[None], xs.shape[0], axis=0)
        for m, amp, freq, phase in terms:
            arg = 2 * math.pi * (xs @ freq) + phase
            pos[:, m] += amp * np.sin(arg)
            jac[:, m, :] += (amp * 2 * math.pi * np.cos(arg))[:, None] * freq
        return pos, jac

    def hess(xs):
        h = np.zeros((xs.shape[0], n, k, k))
        for m, amp, freq, phase in terms:
            arg = 2 * math.pi * (xs @ freq) + phase
            h[:, m] += (-amp * (2 * math.pi) ** 2 * np.sin(arg))[:, None, None] \
                * np.outer(freq, freq)
        return h

    return Patch(name, k, n, Box.unit(k), closed, rows, hess)


def circle_patch(radius: float = 1.0, n: int = 2, name: str | None = None) -> Patch:
    def rows(xs):
        c, s = np.cos(xs[:, 0]), np.sin(xs[:, 0])
        pos = np.zeros((xs.shape[0], n))
        pos[:, 0], pos[:, 1] = radius * c, radius * s
        jac = np.zeros((xs.shape[0], n, 1))
        jac[:, 0, 0], jac[:, 1, 0] = -radius * s, radius * c
        return pos, jac

    def hess(xs):
        h = np.zeros((xs.shape[0], n, 1, 1))
        h[:, :, 0, 0] = -rows(xs)[0]
        return h

    return Patch(name or f"circle-r{n}", 1, n, Box.make([0.0], [2 * math.pi]),
                 True, rows, hess)


def sphere_patch(radius: float = 1.0, full: bool = True, name: str | None = None) -> Patch:
    """Radius-r 2-sphere in R^3 in spherical coordinates (theta, phi)."""
    lo = [0.0, 0.0] if full else [0.4, 0.3]
    hi = [math.pi, 2 * math.pi] if full else [math.pi - 0.4, 2 * math.pi - 0.3]

    def trig(xs):
        return (np.sin(xs[:, 0]), np.cos(xs[:, 0]), np.sin(xs[:, 1]), np.cos(xs[:, 1]),
                np.zeros(xs.shape[0]))

    def rows(xs):
        st, ct, sp, cp, zero = trig(xs)
        pos = radius * np.stack([st * cp, st * sp, ct], axis=-1)
        jac = radius * np.stack([np.stack([ct * cp, -st * sp], axis=-1),
                                 np.stack([ct * sp, st * cp], axis=-1),
                                 np.stack([-st, zero], axis=-1)], axis=-2)
        return pos, jac

    def hess(xs):
        st, ct, sp, cp, zero = trig(xs)
        mats = [[[-st * cp, -ct * sp], [-ct * sp, -st * cp]],
                [[-st * sp, ct * cp], [ct * cp, -st * sp]],
                [[-ct, zero], [zero, zero]]]
        return radius * np.moveaxis(np.array(mats), -1, 0)

    return Patch(name or "sphere", 2, 3, Box.make(lo, hi), full, rows, hess)


def torus_patch(big_radius: float = 2.0, small_radius: float = 0.5,
                name: str | None = None) -> Patch:
    """Embedded torus of revolution in R^3 (closed)."""
    R, r = big_radius, small_radius

    def trig(xs):
        st, ct, sp, cp = np.sin(xs[:, 0]), np.cos(xs[:, 0]), np.sin(xs[:, 1]), np.cos(xs[:, 1])
        return st, ct, sp, cp, R + r * cp, np.zeros(xs.shape[0])

    def rows(xs):
        st, ct, sp, cp, w, zero = trig(xs)
        pos = np.stack([w * ct, w * st, r * sp], axis=-1)
        jac = np.stack([np.stack([-w * st, -r * sp * ct], axis=-1),
                        np.stack([w * ct, -r * sp * st], axis=-1),
                        np.stack([zero, r * cp], axis=-1)], axis=-2)
        return pos, jac

    def hess(xs):
        st, ct, sp, cp, w, zero = trig(xs)
        mats = [[[-w * ct, r * sp * st], [r * sp * st, -r * cp * ct]],
                [[-w * st, -r * sp * ct], [-r * sp * ct, -r * cp * st]],
                [[zero, zero], [zero, -r * sp]]]
        return np.moveaxis(np.array(mats), -1, 0)

    return Patch(name or "torus2-r3", 2, 3,
                 Box.make([0.0, 0.0], [2 * math.pi, 2 * math.pi]), True, rows, hess)
