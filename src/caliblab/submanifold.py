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
    # (N, k) parameter rows -> Hessians (N, n, k, k)
    _hess: Callable | None = field(default=None, repr=False)
    flat: bool = False                   # affine: constant Jacobian
    axes: tuple[int, ...] | None = None  # 0-based spanned axes when flat
    # (N, k) parameter rows -> positions (N, n) and Jacobians (N, n, k) in one call
    _rows: Callable | None = field(default=None, repr=False)

    def position(self, x) -> np.ndarray:
        return np.asarray(self._eval(np.asarray(x, float)), float)

    def positions(self, xs: np.ndarray) -> np.ndarray:
        """Points u(x) for parameter rows xs (N, k), shape (N, n)."""
        if self.flat:
            return self.position(np.zeros(self.k)) + xs @ self.jacobian(xs[0]).T
        if self._rows is not None:
            return self._rows(np.asarray(xs, float))[0]
        return np.array([self.position(x) for x in xs])

    def jacobians(self, xs: np.ndarray) -> np.ndarray:
        """Jacobians at parameter rows xs (N, k), stacked as (N, n, k): column a
        of entry i is du/dx^a at row i.  A flat patch has a constant Jacobian
        and returns it once, shape (1, n, k), to broadcast against the rows."""
        if self.flat:
            return self.jacobian(xs[0])[None]
        if self._rows is not None:
            return self._rows(np.asarray(xs, float))[1]
        return np.array([self.jacobian(x) for x in xs])

    def rows(self, xs: np.ndarray):
        """Positions and Jacobians at parameter rows xs, as `positions` and
        `jacobians` give them, from one evaluation of a row formula."""
        if self._rows is not None:
            return self._rows(np.asarray(xs, float))
        return self.positions(xs), self.jacobians(xs)

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

    def hessians(self, xs: np.ndarray) -> np.ndarray:
        """Second derivatives d2u/dx^a dx^b at parameter rows xs (N, k), stacked
        as (N, n, k, k)."""
        xs = np.asarray(xs, float)
        if self._hess is not None:
            return np.asarray(self._hess(xs), float)
        out = np.zeros((xs.shape[0], self.n, self.k, self.k))
        h = math.sqrt(GEOM_FD_STEP)
        for a in range(self.k):
            ea = h * np.eye(self.k)[a]
            for b in range(a, self.k):
                eb = h * np.eye(self.k)[b]
                val = (self.positions(xs + ea + eb) - self.positions(xs + ea - eb)
                       - self.positions(xs - ea + eb) + self.positions(xs - ea - eb)) / (4 * h * h)
                out[:, :, a, b] = out[:, :, b, a] = val
        return out

    def hessian(self, x) -> np.ndarray:
        """Second derivatives d2u/dx^a dx^b, shape (n, k, k)."""
        return self.hessians(np.asarray(x, float)[None])[0]

    def frame(self, x, ambient_metric_field=None) -> OrientedFrame:
        gmat = None if ambient_metric_field is None else ambient_metric_field(self.position(x))
        return gram_schmidt_adapt(self.jacobian(x).T, gmat)

    def reversed(self) -> "Patch":
        """Same image with the orientation of the parameter domain reversed."""
        if self.k < 1:
            raise DimensionError("cannot reverse a 0-patch")
        lo, hi = self.box.lo.copy(), self.box.hi.copy()

        def flip(x):  # one point (k,) or parameter rows (N, k)
            y = np.array(x, float)
            y[..., 0] = lo[0] + hi[0] - y[..., 0]
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
            def new_hess(xs):
                h = np.array(hess(flip(xs)), float)
                h[..., 0, :] *= -1
                h[..., :, 0] *= -1
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
    return _normal_projector(patch.jacobian(x))


def mean_curvature(patch: Patch, x, ambient_metric_field=None) -> np.ndarray:
    """Trace of the second fundamental form (Euclidean ambient metric only)."""
    if ambient_metric_field is not None:
        raise ValueError("mean curvature is implemented for the Euclidean ambient metric")
    j = patch.jacobian(x)
    return _mean_curvature(j, patch.hessian(x), _normal_projector(j))


def _normal_projector(jac: np.ndarray) -> np.ndarray:
    """Normal projectors (..., n, n) from Jacobians (..., n, k)."""
    jt = np.swapaxes(jac, -1, -2)
    return np.eye(jac.shape[-2]) - jac @ np.linalg.solve(jt @ jac, jt)


def _mean_curvature(jac: np.ndarray, hess: np.ndarray, p_normal: np.ndarray) -> np.ndarray:
    """Mean curvature vectors (..., n) from Jacobians (..., n, k), Hessians
    (..., n, k, k) and normal projectors (..., n, n)."""
    # g-orthonormal coordinate directions: columns c_a with (J c_a) orthonormal
    c = np.swapaxes(np.linalg.inv(np.linalg.cholesky(np.swapaxes(jac, -1, -2) @ jac)), -1, -2)
    trace = np.einsum("...nab,...ac,...bc->...n", hess, c, c)
    return (p_normal @ trace[..., None])[..., 0]


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


def jet_of_F(patch: Patch, x) -> JetOfF:
    """On-patch jet of F (value 0, gradient 0, Hessian = normal projector).

    The off-patch evaluator computes F(y) = |y - closest point|^2 / 2 by
    Gauss-Newton, seeded from a coarse grid over the parameter box.
    """
    x = np.asarray(x, float)
    p = patch.position(x)
    pn = normal_projector(patch, x)
    axes = [np.linspace(patch.box.lo[a], patch.box.hi[a], JET_SEED_GRID)
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

def _from_rows(name: str, k: int, n: int, box: Box, closed: bool, rows, hess) -> Patch:
    """Patch whose positions and Jacobians come from one formula on parameter
    rows; the per-point evaluators pass it one row."""
    return Patch(name, k, n, box, closed, lambda x: rows(x[None])[0][0],
                 lambda x: rows(x[None])[1][0], hess, _rows=rows)


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

    def hess(xs):
        return np.zeros((xs.shape[0], n, k, k))

    label = name or ("plane-" + "".join(str(a) for a in axes) + f"-r{n}")
    return Patch(label, k, n, Box.unit(k), closed, ev, jac, hess, flat=True, axes=ax0)


def rotated_plane(tangent_rows: np.ndarray, n: int, name: str) -> Patch:
    """Plane spanned by the given (not necessarily axis) tangent rows."""
    basis = np.asarray(tangent_rows, float).T
    k = basis.shape[1]

    def ev(x):
        return basis @ x

    return Patch(name, k, n, Box.unit(k), True, ev, lambda x: basis,
                 lambda xs: np.zeros((xs.shape[0], n, k, k)), flat=False)


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

    return _from_rows(name, k, n, Box.unit(k), closed, rows, hess)


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

    return _from_rows(name or f"circle-r{n}", 1, n, Box.make([0.0], [2 * math.pi]),
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

    return _from_rows(name or "sphere", 2, 3, Box.make(lo, hi), full, rows, hess)


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

    return _from_rows(name or "torus2-r3", 2, 3,
                      Box.make([0.0, 0.0], [2 * math.pi, 2 * math.pi]), True, rows, hess)
