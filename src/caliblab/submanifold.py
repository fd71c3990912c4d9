"""Embedded patches, quadrature, volume, the distance-squared jet, and
finite-difference utilities.

A Patch is a parametrized k-dimensional piece of submanifold in R^n over an
axis-aligned box.  Catalog constructors provide analytic derivatives; patches
built from bare evaluators fall back to central differences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exterior import (
    DegenerateInputError,
    DimensionError,
    OrientedFrame,
    SymTensor2,
    gram_schmidt_adapt,
)

GEOM_FD_STEP = 1e-5
CLOSEST_POINT_TOL = 1e-12
CLOSEST_POINT_MAX_ITER = 50


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

    def contains(self, x, slack: float = 1e-12) -> bool:
        x = np.asarray(x, float)
        return bool(np.all(x >= self.lo - slack) and np.all(x <= self.hi + slack))


class QuadratureRule:
    """Tensorized Gauss-Legendre rule over a box; order q per axis."""

    def __init__(self, box: Box, order: int):
        if order < 1:
            raise ValueError("quadrature order must be >= 1")
        self.box = box
        self.order = order
        pts, wts = np.polynomial.legendre.leggauss(order)
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
    """Parametrized embedded k-patch in R^n with first and second derivatives."""
    name: str
    k: int
    n: int
    box: Box
    closed: bool
    _eval: Callable = field(repr=False)
    _jac: Callable | None = field(default=None, repr=False)
    _hess: Callable | None = field(default=None, repr=False)
    flat: bool = False                   # affine: constant Jacobian
    axes: tuple[int, ...] | None = None  # 0-based spanned axes when flat

    def position(self, x) -> np.ndarray:
        return np.asarray(self._eval(np.asarray(x, float)), float)

    def positions(self, xs: np.ndarray) -> np.ndarray:
        """Points u(x) for parameter rows xs (N, k), shape (N, n)."""
        if self.flat:
            return self.position(np.zeros(self.k)) + xs @ self.jacobian(xs[0]).T
        return np.array([self.position(x) for x in xs])

    def jacobians(self, xs: np.ndarray) -> np.ndarray:
        """Jacobians at parameter rows xs, shape (N, n, k); a flat patch has a
        constant Jacobian and returns it once, shape (1, n, k), to broadcast."""
        if self.flat:
            return self.jacobian(xs[0])[None]
        return np.array([self.jacobian(x) for x in xs])

    def jacobian(self, x) -> np.ndarray:
        """Columns are the coordinate tangent vectors du/dx^a, shape (n, k)."""
        x = np.asarray(x, float)
        if self._jac is not None:
            return np.asarray(self._jac(x), float)
        out = np.zeros((self.n, self.k))
        for a in range(self.k):
            e = np.zeros(self.k)
            e[a] = GEOM_FD_STEP
            out[:, a] = (self.position(x + e) - self.position(x - e)) / (2 * GEOM_FD_STEP)
        return out

    def hessian(self, x) -> np.ndarray:
        """Second derivatives d2u/dx^a dx^b, shape (n, k, k)."""
        x = np.asarray(x, float)
        if self._hess is not None:
            return np.asarray(self._hess(x), float)
        out = np.zeros((self.n, self.k, self.k))
        h = math.sqrt(GEOM_FD_STEP)
        for a in range(self.k):
            ea = np.zeros(self.k)
            ea[a] = h
            for b in range(a, self.k):
                eb = np.zeros(self.k)
                eb[b] = h
                val = (self.position(x + ea + eb) - self.position(x + ea - eb)
                       - self.position(x - ea + eb) + self.position(x - ea - eb)) / (4 * h * h)
                out[:, a, b] = out[:, b, a] = val
        return out

    def frame(self, x, ambient_metric_field=None) -> OrientedFrame:
        gmat = None if ambient_metric_field is None else ambient_metric_field(self.position(x))
        return gram_schmidt_adapt(self.jacobian(x).T, gmat)

    def reversed(self) -> "Patch":
        """Same image with the orientation of the parameter domain reversed."""
        if self.k < 1:
            raise DimensionError("cannot reverse a 0-patch")
        lo, hi = self.box.lo.copy(), self.box.hi.copy()

        def flip(x):
            y = np.asarray(x, float).copy()
            y[0] = lo[0] + hi[0] - y[0]
            return y

        ev = self._eval
        jac = self._jac
        hess = self._hess

        def new_eval(x):
            return ev(flip(x))

        new_jac = None
        if jac is not None:
            def new_jac(x):
                j = np.asarray(jac(flip(x)), float).copy()
                j[:, 0] *= -1
                return j

        new_hess = None
        if hess is not None:
            def new_hess(x):
                h = np.asarray(hess(flip(x)), float).copy()
                h[:, 0, :] *= -1
                h[:, :, 0] *= -1
                return h

        return Patch(self.name + "-reversed", self.k, self.n, self.box, self.closed,
                     new_eval, new_jac, new_hess, self.flat, self.axes)


# ---------------------------------------------------------------------------
# metric, volume, splitting

def induced_metric(patch: Patch, ambient_metric_field, x) -> SymTensor2:
    """g_ab = gbar(du/dx^a, du/dx^b) at a parameter point."""
    x = np.asarray(x, float)
    if not patch.box.contains(x):
        raise ValueError(f"parameter point {x} outside the patch domain")
    j = patch.jacobian(x)
    gbar = np.eye(patch.n) if ambient_metric_field is None else ambient_metric_field(patch.position(x))
    return SymTensor2.from_matrix(j.T @ gbar @ j)


def volume(patch: Patch, ambient_metric_field, rule: QuadratureRule) -> float:
    """Integral of sqrt(det g) over the domain box by quadrature."""
    vals = np.empty(rule.nodes.shape[0])
    for i, x in enumerate(rule.nodes):
        g = induced_metric(patch, ambient_metric_field, x).entries
        det = np.linalg.det(g)
        if det <= 0:
            raise DegenerateInputError(f"induced metric degenerate at node {x}")
        vals[i] = math.sqrt(det)
    return rule.integrate(vals)


def tangent_normal_split(patch: Patch, ambient_metric_field, x, v):
    """Split an ambient vector into tangential and normal parts along the patch."""
    v = np.asarray(v, float)
    j = patch.jacobian(x)
    gbar = np.eye(patch.n) if ambient_metric_field is None else ambient_metric_field(patch.position(x))
    g = j.T @ gbar @ j
    xi = np.linalg.solve(g, j.T @ gbar @ v)
    v_tan = j @ xi
    return v_tan, v - v_tan


def normal_projector(patch: Patch, x) -> np.ndarray:
    """Euclidean orthogonal projector onto the normal space at u(x)."""
    j = patch.jacobian(x)
    g = j.T @ j
    return np.eye(patch.n) - j @ np.linalg.solve(g, j.T)


def mean_curvature(patch: Patch, x, ambient_metric_field=None) -> np.ndarray:
    """Trace of the second fundamental form (Euclidean ambient metric only)."""
    if ambient_metric_field is not None:
        raise ValueError("mean curvature is implemented for the Euclidean ambient metric")
    j = patch.jacobian(x)
    h2 = patch.hessian(x)
    g = j.T @ j
    # orthonormal tangent coefficients: columns c_a with (J c_a) orthonormal
    l = np.linalg.cholesky(g)
    c = np.linalg.inv(l).T  # g-orthonormal coordinate directions
    pn = np.eye(patch.n) - j @ np.linalg.solve(g, j.T)
    h = np.zeros(patch.n)
    for a in range(patch.k):
        acc = np.einsum("nab,a,b->n", h2, c[:, a], c[:, a])
        h += pn @ acc
    return h


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
    best_x, best_d = None, np.inf
    for s in seeds:
        d = np.linalg.norm(patch.position(s) - y)
        if d < best_d:
            best_x, best_d = s, d
    x = np.asarray(best_x, float).copy()
    for _ in range(CLOSEST_POINT_MAX_ITER):
        r = patch.position(x) - y
        j = patch.jacobian(x)
        try:
            step = np.linalg.solve(j.T @ j, j.T @ r)
        except np.linalg.LinAlgError:
            raise DegenerateInputError("closest-point normal equations are singular") from None
        x -= step
        if np.linalg.norm(step) < CLOSEST_POINT_TOL:
            return x
    resid = np.linalg.norm(patch.jacobian(x).T @ (patch.position(x) - y))
    raise DegenerateInputError(
        f"closest-point iteration did not converge (gradient residual {resid:.3e})"
    )


def jet_of_F(patch: Patch, x, seed_grid: int = 7) -> JetOfF:
    """On-patch jet of F (value 0, gradient 0, Hessian = normal projector).

    The off-patch evaluator computes F(y) = |y - closest point|^2 / 2 by
    Gauss-Newton, seeded from a coarse grid over the parameter box.
    """
    x = np.asarray(x, float)
    p = patch.position(x)
    pn = normal_projector(patch, x)
    axes = [np.linspace(patch.box.lo[a], patch.box.hi[a], seed_grid)
            for a in range(patch.k)]
    grids = np.meshgrid(*axes, indexing="ij")
    seeds = np.stack([g.ravel() for g in grids], axis=-1)

    def closest(y):
        return _closest_parameter(patch, y, seeds)

    def f_eval(y):
        y = np.asarray(y, float)
        cp = patch.position(closest(y))
        return 0.5 * float(np.dot(y - cp, y - cp))

    return JetOfF(p, 0.0, np.zeros(patch.n), pn, f_eval, closest)


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

    def ev(x):
        return basis @ x

    def jac(x):
        return basis

    def hess(x):
        return np.zeros((n, k, k))

    label = name or ("plane-" + "".join(str(a) for a in axes) + f"-r{n}")
    return Patch(label, k, n, Box.unit(k), closed, ev, jac, hess, flat=True, axes=ax0)


def rotated_plane(tangent_rows: np.ndarray, n: int, name: str) -> Patch:
    """Plane spanned by the given (not necessarily axis) tangent rows."""
    basis = np.asarray(tangent_rows, float).T
    k = basis.shape[1]

    def ev(x):
        return basis @ x

    return Patch(name, k, n, Box.unit(k), True, ev, lambda x: basis,
                 lambda x: np.zeros((n, k, k)), flat=False)


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

    def ev(x):
        y = basis @ x
        for m, amp, freq, phase in terms:
            y[m] += amp * math.sin(2 * math.pi * float(freq @ x) + phase)
        return y

    def jac(x):
        j = basis.copy()
        for m, amp, freq, phase in terms:
            j[m, :] += amp * 2 * math.pi * math.cos(2 * math.pi * float(freq @ x) + phase) * freq
        return j

    def hess(x):
        h = np.zeros((n, k, k))
        for m, amp, freq, phase in terms:
            h[m] += -amp * (2 * math.pi) ** 2 * math.sin(2 * math.pi * float(freq @ x) + phase) \
                * np.outer(freq, freq)
        return h

    return Patch(name, k, n, Box.unit(k), closed, ev, jac, hess)


def circle_patch(radius: float = 1.0, n: int = 2, name: str | None = None) -> Patch:
    def ev(x):
        t = x[0]
        p = np.zeros(n)
        p[0] = radius * math.cos(t)
        p[1] = radius * math.sin(t)
        return p

    def jac(x):
        t = x[0]
        j = np.zeros((n, 1))
        j[0, 0] = -radius * math.sin(t)
        j[1, 0] = radius * math.cos(t)
        return j

    def hess(x):
        t = x[0]
        h = np.zeros((n, 1, 1))
        h[0, 0, 0] = -radius * math.cos(t)
        h[1, 0, 0] = -radius * math.sin(t)
        return h

    return Patch(name or f"circle-r{n}", 1, n, Box.make([0.0], [2 * math.pi]),
                 True, ev, jac, hess)


def sphere_patch(radius: float = 1.0, full: bool = True, name: str | None = None) -> Patch:
    """Radius-r 2-sphere in R^3 in spherical coordinates (theta, phi)."""
    lo = [0.0, 0.0] if full else [0.4, 0.3]
    hi = [math.pi, 2 * math.pi] if full else [math.pi - 0.4, 2 * math.pi - 0.3]

    def ev(x):
        th, ph = x
        return radius * np.array([math.sin(th) * math.cos(ph),
                                  math.sin(th) * math.sin(ph),
                                  math.cos(th)])

    def jac(x):
        th, ph = x
        return radius * np.array([
            [math.cos(th) * math.cos(ph), -math.sin(th) * math.sin(ph)],
            [math.cos(th) * math.sin(ph), math.sin(th) * math.cos(ph)],
            [-math.sin(th), 0.0],
        ])

    def hess(x):
        th, ph = x
        h = np.zeros((3, 2, 2))
        st, ct, sp, cp = math.sin(th), math.cos(th), math.sin(ph), math.cos(ph)
        h[0] = radius * np.array([[-st * cp, -ct * sp], [-ct * sp, -st * cp]])
        h[1] = radius * np.array([[-st * sp, ct * cp], [ct * cp, -st * sp]])
        h[2] = radius * np.array([[-ct, 0.0], [0.0, 0.0]])
        return h

    return Patch(name or "sphere", 2, 3, Box.make(lo, hi), full, ev, jac, hess)


def torus_patch(big_radius: float = 2.0, small_radius: float = 0.5,
                name: str | None = None) -> Patch:
    """Embedded torus of revolution in R^3 (closed)."""
    R, r = big_radius, small_radius

    def ev(x):
        th, ph = x
        w = R + r * math.cos(ph)
        return np.array([w * math.cos(th), w * math.sin(th), r * math.sin(ph)])

    def jac(x):
        th, ph = x
        w = R + r * math.cos(ph)
        return np.array([
            [-w * math.sin(th), -r * math.sin(ph) * math.cos(th)],
            [w * math.cos(th), -r * math.sin(ph) * math.sin(th)],
            [0.0, r * math.cos(ph)],
        ])

    def hess(x):
        th, ph = x
        w = R + r * math.cos(ph)
        h = np.zeros((3, 2, 2))
        h[0] = np.array([[-w * math.cos(th), r * math.sin(ph) * math.sin(th)],
                         [r * math.sin(ph) * math.sin(th), -r * math.cos(ph) * math.cos(th)]])
        h[1] = np.array([[-w * math.sin(th), -r * math.sin(ph) * math.cos(th)],
                         [-r * math.sin(ph) * math.cos(th), -r * math.cos(ph) * math.sin(th)]])
        h[2] = np.array([[0.0, 0.0], [0.0, -r * math.sin(ph)]])
        return h

    return Patch(name or "torus2-r3", 2, 3,
                 Box.make([0.0, 0.0], [2 * math.pi, 2 * math.pi]), True, ev, jac, hess)
