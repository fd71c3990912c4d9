"""Special metric-variation classes and executable volume-criticality experiments.

A theorem family is a record (case, kit, generator, and the U(m) background
and k).  Its calibration form moves by the exact velocity d(generator), whose
rows each node block forms once; one table row per case reads off that d the
metric velocity h, the calibration form and its class velocity.  The families
of the FD and minimal checks are a velocity h and, where a nonlinear family
exists, a black-box metric evaluator for finite-difference cross checks.
Analytic evaluators run over node blocks whose length bounds the largest
temporary; the routes that read only the tangent plane evaluate an affine
patch's plane once.  Exterior derivatives of the test variations use the
2-jet of the distance function, with terms linear in its gradient dropped
since they vanish on the patch.
"""
from __future__ import annotations

import math
from collections import ChainMap
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from typing import Callable

import numpy as np

from .decomposition import (
    H_MAP_COEFFS,
    _h_from_hat,
    hat_eta,
    hat_rho,
    hat_sigma,
    metric_from_3form,
    project_35_7,
)
from .exterior import hodge_star, minors, orthonormal_frames, wedge
from .fields import FormField, UmBackground, VectorField
from .structures import (
    TOL_CALIB,
    Kit,
    _blocks,
    _blockwise,
    invariance_defect,
    standard_kit,
)
from .submanifold import (
    Patch,
    QuadratureRule,
    fd_derivative,
    mean_curvature,
    normal_projector,
)

TOL_POINT = 1e-8
TOL_INT = 1e-6

# FD oracles: t-steps of the family volume and the flowed volume, the parameter
# step of the divergence route, Richardson levels, RK4 steps of one flow
FD_STEP = 1e-4
FLOW_FD_STEP = 1e-3
DIVERGENCE_FD_STEP = 1e-5
RICHARDSON_LEVELS = 2
FLOW_RK4_STEPS = 8

# Tr_g h of the test variation over sum_f |pi_N cross(S, f)|^2; the sign is
# pinned by direct evaluation of the construction (see tests)
CLOSED_FORM_SCALE = {"um": 1.0, "associative": -1.0, "coassociative": 1.0, "cayley": 0.5}
# along a Cayley plane, retaining the pure-trace direction of the test variation
# adds CAYLEY_KEPT_TRACE |V ^ W|^2 to (1/2) Tr_g h
CAYLEY_KEPT_TRACE = 2.0 / 7.0
# the raw Cayley trace identity Tr_g h(sigma) = sigma_T - sigma_N + Tr(sigma^) / 168
# for unprojected sigma along Cayley planes: the divisor of Tr(sigma^)
CAYLEY_RAW_TRACE_DIVISOR = 168.0

# the (sym, trace) coefficients of every h-map, read at call time: decomposition's
# table, and U(m)'s h = (A J + (A J)^T) / 2 of the antisymmetric matrix A of a
# 2-form velocity (J fixed)
_H_COEFFS = ChainMap({"h_um": (0.5, 0.0)}, H_MAP_COEFFS)


@dataclass(frozen=True)
class VariationFamily:
    """A one-parameter metric variation given by its velocity along a patch:
    h(patch, xs) -> (N, n, n) at parameter rows xs (N, k), or one row that
    holds at every node, and, where a nonlinear family exists, gbar_at(ys, t)
    -> ambient metrics (..., n, n) at points (..., n) around the Euclidean one."""
    h: Callable
    gbar_at: Callable | None = None


@dataclass(frozen=True)
class TheoremFamily:
    """The special variation of one case: the calibration form moves by the
    exact velocity d(generator), and h is read off d by the case's h-map.
    keep_omega4_1 keeps the pure-trace part of a Cayley velocity."""
    case: str
    kit: Kit
    generator: FormField
    background: UmBackground | None = None  # U(m): omega moves at fixed J on it
    k: int = 1                              # U(m): the family calibrates 2k-planes
    keep_omega4_1: bool = False

    def d(self, patch: Patch, xs: np.ndarray) -> np.ndarray:
        """The velocity rows d (N, C(n, arity + 1)) at parameter rows xs."""
        return self.generator.d_coeffs(patch.positions(xs))

    def forms(self, patch: Patch, xs: np.ndarray, d: np.ndarray):
        """(mu, mu_dot) at parameter rows xs from their velocity rows d."""
        return _CASES[self.case].forms(self, patch, xs, d)

    @property
    def gbar_at(self) -> Callable | None:
        """(ys, t) -> ambient metrics (..., n, n) at points (..., n) of the
        nonlinear family, the FD oracle; None where the case has none."""
        oracle = _CASES[self.case].gbar_at
        return None if oracle is None else partial(oracle, self)


@lru_cache(maxsize=None)
def _pair_indices(n: int):
    return np.triu_indices(n, 1)  # lexicographic pairs, the coefficient order


def _antisym_mats(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Antisymmetric matrices (..., n, n) of 2-form coefficient rows: to_tensor
    for k = 2, by two scatters, which is faster on the U(m) fast path."""
    i, j = _pair_indices(n)
    out = np.zeros(coeffs.shape[:-1] + (n, n))
    out[..., i, j] = coeffs
    out[..., j, i] = -coeffs
    return out


@lru_cache(maxsize=None)
def _phi_unit():
    c = standard_kit("cayley").form
    return c / np.linalg.norm(c)


def _um_forms(family: TheoremFamily, patch: Patch, xs, d):
    """omega^k / k! and d ^ omega^(k-1) / (k-1)!; a flat background's omega is one row."""
    bg, n = family.background, family.kit.n
    om = bg.omega_coeffs(patch.positions(xs[:1] if bg.is_flat else xs))

    def wedge_omegas(c, first):
        # c ^ om^(k-1) / (first (first + 1) ... (first + k - 2))
        for i in range(family.k - 1):
            c = wedge(c, om, n, 2 + 2 * i, 2) * (1.0 / (first + i))
        return c

    return wedge_omegas(om, 2), wedge_omegas(d, 1)


def _g2_forms(family: TheoremFamily, patch: Patch, xs, d):
    return family.kit.form[None], d


def _cayley_forms(family: TheoremFamily, patch: Patch, xs, d):
    """Phi and pi_{35+7} d, plus d's Phi part with keep_omega4_1."""
    sigma = project_35_7(d)
    if family.keep_omega4_1:
        u = _phi_unit()
        sigma = sigma + (d @ u)[:, None] * u
    return family.kit.form[None], sigma


def _um_gbar_at(family: TheoremFamily, ys, t):
    """The metric of omega_t = omega + t (d alphadot)^(1,1) at fixed J."""
    J, n = family.kit.tensor.T, family.kit.n
    a = _antisym_mats(family.generator.d_coeffs(ys), n)
    omega_t = _antisym_mats(family.background.omega_coeffs(ys), n) + t * 0.5 * (a + J.T @ a @ J)
    oj = omega_t @ J
    return 0.5 * (oj + np.swapaxes(oj, -1, -2))


def _assoc_gbar_at(family: TheoremFamily, ys, t):
    """The metric of phi_t = phi + t d(betadot)."""
    return metric_from_3form(family.kit.form + t * family.generator.d_coeffs(ys))[0]


@dataclass(frozen=True)
class _Case:
    """One case's maps of velocity rows d."""
    hat: Callable                    # (kit, d) -> the hats (..., n, n) of its h-map
    h_keys: tuple                    # _H_COEFFS keys of h: projected, pure-trace part kept
    forms: Callable = _g2_forms      # (family, patch, xs, d) -> (mu, mu_dot)
    gbar_at: Callable | None = None  # (family, ys, t) -> the nonlinear metrics


# the hats call their kernels by name, so a kernel swapped in the module is the one run
_CASES = {
    "um": _Case(lambda kit, d: _antisym_mats(d, kit.n) @ kit.tensor.T,  # J = omega's tensor^T
                ("h_um",) * 2, _um_forms, _um_gbar_at),
    "associative": _Case(lambda kit, d: hat_eta(d), ("h_from_3form",) * 2,
                         gbar_at=_assoc_gbar_at),
    "coassociative": _Case(lambda kit, d: hat_rho(d), ("h_from_4form",) * 2),
    "cayley": _Case(lambda kit, d: hat_sigma(d), ("h0_sp7", "h_sp7"), _cayley_forms),
}
CASES = tuple(_CASES)


def _h_map(kit: Kit, d: np.ndarray, keep_omega4_1: bool = False) -> np.ndarray:
    """Ambient metric velocities (..., n, n) of velocity rows d (..., C(n, p))."""
    row = _CASES[kit.case]
    return _h_from_hat(row.hat(kit, d), *_H_COEFFS[row.h_keys[keep_omega4_1]])


def theorem_family(case: str, generator: FormField, background: UmBackground | None = None,
                   k: int = 1, keep_omega4_1: bool = False) -> TheoremFamily:
    """The family of one case whose calibration form (omega, phi, psi or Phi)
    moves by d(generator); U(m) needs its background."""
    kit = standard_kit(case, m=generator.n // 2, k=k)
    if generator.n != kit.n or (case == "um" and getattr(background, "n", None) != kit.n):
        raise ValueError(f"the {case} family needs its generator and background on R^{kit.n}")
    return TheoremFamily(case, kit, generator, background, k, keep_omega4_1)


def lie_family(xfield: VectorField) -> VariationFamily:
    """Pullback family along the flow of an ambient field (Euclidean background)."""

    def lie_derivative(patch, xs):
        dx = xfield.jacobian(patch.positions(xs))
        return dx + np.swapaxes(dx, -1, -2)

    return VariationFamily(lie_derivative)


def scaling_family(n: int) -> VariationFamily:
    """The family e^t gbar around the Euclidean metric."""

    def gbar_at(ys, t):
        return np.broadcast_to(math.exp(t) * np.eye(n), np.shape(ys)[:-1] + (n, n))

    return VariationFamily(lambda patch, xs: np.eye(n)[None], gbar_at)


def ambient_family(h_field, quadratic_field=None) -> VariationFamily:
    """Generic family gbar_t = I + t H(y) + t^2 K(y) with velocity H."""

    def gbar_at(ys, t):
        g = np.eye(np.shape(ys)[-1]) + t * h_field.value(ys)
        if quadratic_field is not None:
            g = g + t * t * quadratic_field.value(ys)
        return g

    return VariationFamily(lambda patch, xs: h_field.value(patch.positions(xs)), gbar_at)


# ---------------------------------------------------------------------------
# first variations

def _trace_g(g_inv: np.ndarray, jac: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Tr_g of the restriction J^T h J at each node, from the inverse metrics."""
    jt = np.swapaxes(jac, -1, -2)
    return np.einsum("...ab,...ba->...", g_inv, jt @ h @ jac)


def _metric_terms(jac, metric=None):
    """g^-1 and sqrt(det g) of g = J^T gbar J, gbar (..., n, n) Euclidean by default;
    inverting g, not solving against it, inverts a flat patch's single g once."""
    jt = np.swapaxes(jac, -1, -2)
    g = jt @ jac if metric is None else jt @ metric @ jac
    return np.linalg.inv(g), np.sqrt(np.linalg.det(g))


def _integrand_floats(n: int) -> int:
    """Floats a node takes in the integrand's widest row: an (n, n) metric
    velocity or a coefficient row of middle degree."""
    return max(n * n, math.comb(n, n // 2))


def analytic_first_variation(patch: Patch, family: VariationFamily,
                             rule: QuadratureRule) -> float:
    """(1/2) integral of Tr_g h over the patch around the Euclidean background."""
    vals = np.empty(rule.nodes.shape[0])
    for sl in _blocks(len(vals), _integrand_floats(patch.n)):
        xs = rule.nodes[sl]
        jac = patch.jacobians(xs)
        g_inv, density = _metric_terms(jac)
        vals[sl] = 0.5 * _trace_g(g_inv, jac, family.h(patch, xs)) * density
    return rule.integrate(vals)


def fd_first_variation(patch: Patch, family: VariationFamily | TheoremFamily,
                       rule: QuadratureRule):
    """Finite-difference d/dt of the volume along the family's metric evaluator."""
    if family.gbar_at is None:
        raise ValueError("the family has no nonlinear evaluator")
    ys, jacs = patch.rows(rule.nodes)
    jacs = np.broadcast_to(jacs, ys.shape + (patch.k,))

    def vol(t):
        def densities(y, j):
            return np.sqrt(np.linalg.det(np.swapaxes(j, -1, -2) @ family.gbar_at(y, t) @ j))

        # an evaluator keeps up to one coefficient row of middle degree per axis a node
        return rule.integrate(_blockwise(densities, patch.n * math.comb(patch.n, patch.n // 2),
                                         ys, jacs))

    return fd_derivative(vol, 0.0, FD_STEP, RICHARDSON_LEVELS)


# ---------------------------------------------------------------------------
# test variations (jet-reduced exterior derivatives along the patch), one per
# selection S of arity - 1 frame rows.  The helpers take stacked nodes:
# frames (..., k, n), normal projectors (..., n, n), selection rows (..., n).

def _over_planes(patch: Patch, xs: np.ndarray, floats_per_node: int, fn) -> np.ndarray:
    """fn(frames, densities) of the tangent planes at parameter rows xs, one
    result row per row of xs, over node blocks whose temporaries of
    floats_per_node floats a node fit in BLOCK_BYTES.  An affine patch has one
    tangent plane: it is evaluated once, and its row holds at every node."""
    def planes(rows):
        return fn(*orthonormal_frames(np.swapaxes(patch.jacobians(rows), -1, -2)))

    if patch.flat:
        out = planes(xs[:1])
        return np.broadcast_to(out, (len(xs),) + out.shape[1:])
    return _blockwise(planes, floats_per_node, xs)


def _kit(case: str, k: int, n: int):
    """The case's kit for k-planes in R^n."""
    return standard_kit(case, m=n // 2, k=max(1, k // 2))


def _stacked_selection(kit, frames, selections):
    """(idx, S) of selections of frame rows along frames (..., k, n): the index
    table idx (s, arity - 1) of their first arity - 1 selectors, and each
    slot's rows S[j] = frames[..., idx[:, j], :] (..., s, n).  A selector is
    an int or numpy integer, not a bool, in 0..k-1."""
    k, width = frames.shape[-2], kit.arity - 1
    table = [tuple(sel)[:width] for sel in selections]
    for sel in (s for row in table for s in row):
        if isinstance(sel, bool) or not isinstance(sel, (int, np.integer)) or not 0 <= sel < k:
            raise ValueError(f"selector {sel!r} is not a frame-row index of a {k}-plane")
    idx = np.array(table, dtype=int).reshape(len(table), width)
    return idx, [frames[..., idx[:, j], :] for j in range(width)]


def _selection(kit, frames, V=None, W=None) -> list:
    """The frame rows (..., n) of the selection (V, W), rows 0 and 1 by default."""
    _, S = _stacked_selection(kit, frames, [(0 if V is None else V, 1 if W is None else W)])
    return [v[..., 0, :] for v in S]


def _derivative(kit, p_normal: np.ndarray, S) -> np.ndarray:
    """Coefficients (..., C(n, arity + 1)) of sum_i e^i ^ S ^ cross(S, pi_N e_i)."""
    # rows[..., i, :, :] is [e_i, *S, cross(S, pi_N e_i)]; the rows
    # cross(S, pi_N e_i) are pi_N times the selection's partial contraction
    crossed = p_normal @ kit.cross(*S)
    rows = np.empty(crossed.shape[:-1] + (len(S) + 2, kit.n))
    rows[..., 0, :] = np.eye(kit.n)
    for j, v in enumerate(S, 1):
        rows[..., j, :] = v[..., None, :]
    rows[..., -1, :] = crossed
    return minors(rows).sum(axis=-2)


def _trace(frame: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Tr_g of the restriction of h, from orthonormal tangent frames."""
    return np.einsum("...an,...nm,...am->...", frame, h, frame)


def _minors_floats(kit) -> int:
    """Floats a node takes in the derivative minors of one selection."""
    return kit.n * math.comb(kit.n, kit.arity + 1)


def test_variation_derivative(case: str, frames: np.ndarray, V=None, W=None) -> np.ndarray:
    """Exterior derivative along the patch of the case's test variation, as
    coefficient rows (..., C(n, arity + 1)) along orthonormal tangent frames
    (..., k, n), for the selection (V, W) of frame rows.

    The generators themselves vanish on the patch (they are linear in the
    gradient of the distance function); only the derivative
    sum_i e^i ^ S ^ cross(S, e_i_perp) survives:

        um:            d adot = sum_i e^i ^ (J e_i_perp)
        associative:   d bdot = sum_i e^i ^ V ^ (V x e_i_perp)
        coassociative: d gdot = sum_i e^i ^ V ^ W ^ chi(V, W, e_i_perp)
        cayley:        d gdot = sum_i e^i ^ V ^ W ^ P(V, W, e_i_perp)
    """
    kit = _kit(case, *frames.shape[-2:])
    return _derivative(kit, normal_projector(frames), _selection(kit, frames, V, W))


test_variation_derivative.__test__ = False  # keep pytest from collecting it


def chain_traces(case: str, frames: np.ndarray, selections,
                 keep_omega4_1: bool = False) -> np.ndarray:
    """Tr_g h of the test variation of every selection through the full chain
    (jet derivative -> decomposition -> trace) along orthonormal tangent
    frames (..., k, n), shape (..., s): one derivative of the stacked
    selections.  The first variation of a test variation is (1/2) integral
    of its chain trace dvol."""
    kit = _kit(case, *frames.shape[-2:])
    _, S = _stacked_selection(kit, frames, selections)
    d = _derivative(kit, normal_projector(frames)[..., None, :, :], S)
    return _trace(frames[..., None, :, :], _h_map(kit, d, keep_omega4_1))


def closed_form_traces(case: str, frames: np.ndarray, selections) -> np.ndarray:
    """The proof's closed-form value of Tr_g h for the test variation of every
    selection, scale * sum_f |pi_N cross(S, f)|^2, along orthonormal tangent
    frames (..., k, n), shape (..., s); each selection holds the same number
    of distinct frame rows."""
    kit = _kit(case, *frames.shape[-2:])
    idx, S = _stacked_selection(kit, frames, selections)
    # cross(S, f) = 0 for a frame row f in S: S meets only the other rows
    others = [[f for f in range(frames.shape[-2]) if f not in row] for row in idx.tolist()]
    rows = frames[..., np.array(others, dtype=int).reshape(len(idx), -1), :]
    crossed = kit.cross(*(v[..., None, :] for v in S), rows)
    fr = frames[..., None, :, :]
    normal = crossed - (crossed @ np.swapaxes(fr, -1, -2)) @ fr
    return CLOSED_FORM_SCALE[case] * np.sum(normal * normal, axis=(-2, -1))


def chain_consistency(case: str, patch: Patch, rule: QuadratureRule,
                      nodes=None) -> float:
    """Max gap |chain_traces - closed_form_traces| over the nodes and the
    canonical selections, on one frame evaluation per node block and one
    stacked call over the selections."""
    pts = rule.nodes if nodes is None else np.asarray(nodes, float)
    selections = _canonical_selections(case, patch.k, patch.n)

    def gaps(frames, _):
        return np.abs(chain_traces(case, frames, selections)
                      - closed_form_traces(case, frames, selections)).max(axis=-1)

    # the derivative minors of every selection are a node's widest temporary
    per_node = len(selections) * _minors_floats(_kit(case, patch.k, patch.n))
    return float(_over_planes(patch, pts, per_node, gaps).max())


def _canonical_selections(case: str, k: int, n: int):
    return list(combinations(range(k), _kit(case, k, n).arity - 1))


PLANE_CATALOG = {
    # (n, calibrated axis tuples, non-calibrated axis tuples), 1-based axes
    "um": (6,
           [(1, 2), (3, 4), (5, 6), (1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)],
           [(1, 3), (1, 4), (2, 5), (2, 6), (1, 3, 5, 6), (1, 4, 5, 6), (2, 3, 5, 6)]),
    "associative": (7,
                    [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
                     (3, 4, 7), (3, 5, 6)],
                    [(1, 2, 4), (1, 2, 5), (1, 3, 4), (2, 3, 4), (1, 2, 6),
                     (4, 5, 6), (5, 6, 7)]),
    "coassociative": (7,
                      [(4, 5, 6, 7), (2, 3, 6, 7), (2, 3, 4, 5), (1, 3, 5, 7),
                       (1, 3, 4, 6), (1, 2, 5, 6), (1, 2, 4, 7)],
                      [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 6), (1, 4, 5, 6),
                       (3, 4, 5, 6), (2, 4, 5, 7)]),
    "cayley": (8,
               [(1, 2, 3, 4), (5, 6, 7, 8), (1, 2, 5, 6), (3, 4, 7, 8),
                (1, 3, 5, 7), (2, 4, 6, 8), (1, 4, 5, 8), (2, 3, 6, 7)],
               [(1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 4, 5), (1, 3, 4, 5),
                (2, 3, 4, 5), (1, 2, 5, 7)]),
}


def plane_catalog(case: str):
    """(calibrated patches, non-calibrated patches) of flat axis planes."""
    from .submanifold import flat_plane

    n, good, bad = PLANE_CATALOG[case]
    return ([flat_plane(axes, n) for axes in good],
            [flat_plane(axes, n) for axes in bad])


def theorem_B_defect(case: str, patch: Patch, rule: QuadratureRule) -> float:
    """Integral of the case's defect integrand over the canonical frame choices.

    Zero exactly when the sampled tangent planes are calibrated; equals
    2 |summed first variations| of the test variations of the canonical
    selections, (1/2) integral of their chain_traces dvol.
    """
    kit = _kit(case, patch.k, patch.n)
    scale = abs(CLOSED_FORM_SCALE[case])

    def defect(frames, density):
        return scale * density * invariance_defect(kit, frames)

    # the defect's largest temporary is the gather of each product's rows
    per_node = math.comb(patch.k, kit.arity) * kit.arity * patch.n
    return rule.integrate(_over_planes(patch, rule.nodes, per_node, defect))


def plane_defect(case: str, patch: Patch, rule: QuadratureRule) -> float:
    """Max over the nodes of |1 - |mu(xi)||, xi the unit tangent plane: zero
    exactly on calibrated planes."""
    kit = _kit(case, patch.k, patch.n)

    def defect(frames, _):
        return np.abs(1.0 - np.abs(minors(frames) @ kit.mu))

    return float(_over_planes(patch, rule.nodes, math.comb(patch.n, patch.k), defect).max())


# ---------------------------------------------------------------------------
# checks and theorem A

@dataclass(frozen=True)
class Check:
    """One numerical check of a result: ``value`` below ``tol``, or at or above
    it for an ``at_least`` check."""
    name: str
    value: float
    tol: float
    at_least: bool = False


def passed(checks) -> bool:
    """Whether every check holds; a NaN value fails in both directions.  An
    empty list passes, and the CLI marks its record vacuous."""
    return all(c.value >= c.tol if c.at_least else c.value < c.tol for c in checks)


def theorem_A_experiment(patch: Patch, family: TheoremFamily, rule: QuadratureRule,
                         tol_point: float = TOL_POINT, tol_int: float = TOL_INT):
    """(results, checks) of the criticality experiment for one family on one patch.

    Reports (i) the analytic first variation, (ii) the pointwise integrand
    identity equating (1/2) Tr_g h vol with the velocity of the calibration
    form restricted to the patch, (iii) the direct quadrature of that
    restricted velocity (zero by Stokes on closed patches), and, in the
    Cayley case, the extra condition integral.  Off a calibrated patch there
    is no check: whether the patch is calibrated is theorem_B_defect's
    question, which does not depend on the family.

    Each node block forms its velocity rows d, their hat and g^-1 once.  One
    minors array per node serves every restriction: forms are evaluated on
    the coordinate frame through the Jacobian minors, and on the orthonormal
    tangent frame through the same minors over sqrt(det g).
    """
    case, kit, bg = family.case, family.kit, family.background
    cayley, row = case == "cayley", _CASES[case]
    wavy = bg is not None and not bg.is_flat  # a U(m) background with d omega != 0
    h_coeffs = _H_COEFFS[row.h_keys[family.keep_omega4_1]]
    fv, value, identity, stokes, condition, raw = np.empty((6, rule.nodes.shape[0]))
    for sl in _blocks(len(fv), _integrand_floats(patch.n)):
        xs = rule.nodes[sl]
        jac = patch.jacobians(xs)
        d = family.d(patch, xs)
        hat = row.hat(kit, d)
        g_inv, density = _metric_terms(jac, bg.metric(patch.positions(xs)) if wavy else None)
        half_tr = 0.5 * _trace_g(g_inv, jac, _h_from_hat(hat, *h_coeffs))
        fv[sl] = half_tr * density
        jac_minors = minors(np.swapaxes(jac, -1, -2))
        frame = jac_minors / density[:, None]
        mu, mu_dot = family.forms(patch, xs, d)
        value[sl] = np.sum(mu * frame, axis=-1)
        # the calibrated orientation of the tangent frame
        orient = np.where(value[sl] < 0, -1.0, 1.0)
        identity[sl] = np.abs(half_tr - orient * np.sum(mu_dot * frame, axis=-1))
        if not cayley:
            stokes[sl] = np.sum(mu_dot * jac_minors, axis=-1)
            continue
        # Stokes route uses the exact form d(gammadot), not its projection
        star_d = hodge_star(d, patch.n, 4)
        stokes[sl] = np.sum(d * jac_minors, axis=-1)
        condition[sl] = np.sum(star_d * jac_minors, axis=-1)
        # the raw trace identity, where sigma_N, sigma on the completing normal
        # frame, is (*sigma) on the oriented tangent frame
        sig_tn = orient * np.sum((d - star_d) * frame, axis=-1)
        tr_hat = np.trace(hat, axis1=-2, axis2=-1)
        h_raw = _h_from_hat(hat, *H_MAP_COEFFS["h_sp7"])
        raw[sl] = np.abs(_trace_g(g_inv, jac, h_raw)
                         - (sig_tn + tr_hat / CAYLEY_RAW_TRACE_DIVISOR))

    plane_defect = float(np.max(np.abs(np.abs(value) - 1.0)))
    results = {"calibrated": plane_defect < TOL_CALIB, "plane_value": float(value[0]),
               "plane_defect": plane_defect, "analytic_first_variation": rule.integrate(fv),
               "identity_max_err": float(identity.max()), "stokes_value": rule.integrate(stokes)}
    if cayley:
        results["cayley_condition"] = rule.integrate(condition)
        results["cayley_raw_identity_err"] = float(raw.max())
    if wavy and family.k >= 2:
        results["um_dw_route"] = _um_dw_route(patch, family, rule)
    return results, _theorem_checks(results, family, patch.closed, tol_point, tol_int)


def _theorem_checks(r: dict, family: TheoremFamily, closed: bool,
                    tol_point: float, tol_int: float) -> tuple:
    """The checks that apply to theorem A's results: none off a calibrated
    patch, and the vanishing integrals only on a closed one, where Stokes makes
    them vanish."""
    if not r["calibrated"]:
        return ()
    fv = r["analytic_first_variation"]
    checks = [Check("integrand_identity", r["identity_max_err"], tol_point)]
    if "um_dw_route" in r:
        checks.append(Check("dw_route_matches", abs(r["um_dw_route"] - fv), tol_int))
    elif family.case == "cayley":
        checks.append(Check("raw_trace_identity", r["cayley_raw_identity_err"], tol_point))
        if not family.keep_omega4_1:
            if closed:
                checks += [Check("condition_holds", abs(r["cayley_condition"]), tol_int),
                           Check("first_variation_zero", abs(fv), tol_int)]
            orient_sign = -1.0 if r["plane_value"] < 0 else 1.0
            star_route = 0.5 * orient_sign * (r["stokes_value"] - r["cayley_condition"])
            checks.append(Check("star_route", abs(fv - star_route), tol_int))
    elif closed:
        checks += [Check("first_variation_zero", abs(fv), tol_int),
                   Check("stokes_zero", abs(r["stokes_value"]), tol_int)]
    return tuple(checks)


def _um_dw_route(patch: Patch, family: TheoremFamily, rule: QuadratureRule) -> float:
    """Quadrature of adot ^ d omega ^ omega^{k-2} / (k-2)! restricted to the patch."""
    background, alphadot, k, n = family.background, family.generator, family.k, patch.n
    vals = np.empty(rule.nodes.shape[0])
    # a wedge keeps about four rows of its output width alive, none wider than C(n, n/2)
    for sl in _blocks(len(vals), 4 * math.comb(n, n // 2)):
        xs = rule.nodes[sl]
        ys = patch.positions(xs)
        form = wedge(alphadot.value_coeffs(ys), background.d_omega_coeffs(ys), n, 1, 3)
        for jj in range(1, k - 1):
            form = wedge(form, background.omega_coeffs(ys), n, 2 + 2 * jj, 2) * (1.0 / jj)
        vals[sl] = np.sum(form * minors(np.swapaxes(patch.jacobians(xs), -1, -2)), axis=-1)
    return rule.integrate(vals)


# ---------------------------------------------------------------------------
# the Cayley anomaly and the minimal-submanifold comparison

def cayley_anomaly(patch: Patch, rule: QuadratureRule, V=0, W=1) -> dict:
    """Pointwise failure data for retaining the pure-trace direction.

    Returns the max deviation of (1/2)(Tr_g h - Tr_g h0) from
    CAYLEY_KEPT_TRACE |V ^ W|^2 = (2/7)|V ^ W|^2 and the max of
    |star(d gdot) restricted to the patch|.
    """
    kit = standard_kit("cayley")

    def failures(frames, _):
        v, w = _selection(kit, frames, V, W)
        d = _derivative(kit, normal_projector(frames), (v, w))
        hat = hat_sigma(d)  # both h-maps read off one hat
        half_gap = 0.5 * _trace(frames, _h_from_hat(hat, *H_MAP_COEFFS["h_sp7"])
                                - _h_from_hat(hat, *H_MAP_COEFFS["h0_sp7"]))
        vw2 = np.sum(v * v, -1) * np.sum(w * w, -1) - np.sum(v * w, -1) ** 2
        star = np.sum(hodge_star(d, 8, 4) * minors(frames), axis=-1)
        return np.stack([np.abs(half_gap - CAYLEY_KEPT_TRACE * vw2), np.abs(star)], axis=-1)

    max_dev, max_star = _over_planes(patch, rule.nodes, _minors_floats(kit), failures).max(axis=0)
    return {"trace_discrepancy_err": float(max_dev), "star_restriction_max": float(max_star)}


def flow_volume_derivative(patch: Patch, xfield: VectorField, rule: QuadratureRule):
    """d/dt at 0 of the volume of the patch flowed along the field (FD oracle).

    Every node's point y and tangent vectors M (the pushed-forward Jacobian)
    follow the flow together: dy/dt = X(y), dM/dt = DX(y) M, by RK4 over
    memory-bounded node blocks."""
    n, k = patch.n, patch.k
    # a step keeps about six (y, M) pairs and two field Jacobians per node alive
    base = [(sl, *patch.rows(rule.nodes[sl]))
            for sl in _blocks(rule.nodes.shape[0], 6 * n * (k + 1) + 2 * n * n)]

    def flowed_volume(t):
        vals = np.empty(rule.nodes.shape[0])
        dt = t / FLOW_RK4_STEPS
        for sl, y, m in base:
            m = np.broadcast_to(m, y.shape + (k,))  # a flat patch's Jacobian is shared
            for _ in range(FLOW_RK4_STEPS):
                y, m = _rk4_flow_step(xfield, y, m, dt)
            vals[sl] = np.sqrt(np.linalg.det(np.swapaxes(m, -1, -2) @ m))
        return rule.integrate(vals)

    return fd_derivative(flowed_volume, 0.0, FLOW_FD_STEP, RICHARDSON_LEVELS)


def _rk4_flow_step(xfield: VectorField, y, m, dt):
    """One RK4 step of dy/dt = X(y), dM/dt = DX(y) M for stacked (y, M)."""
    def rhs(state):
        yy, mm = state
        return xfield.value(yy), xfield.jacobian(yy) @ mm

    k1 = rhs((y, m))
    k2 = rhs((y + 0.5 * dt * k1[0], m + 0.5 * dt * k1[1]))
    k3 = rhs((y + 0.5 * dt * k2[0], m + 0.5 * dt * k2[1]))
    k4 = rhs((y + dt * k3[0], m + dt * k3[1]))
    y_new = y + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    m_new = m + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    return y_new, m_new


def divergence_route(patch: Patch, xfield: VectorField, rule: QuadratureRule) -> float:
    """Integral of div_g(X^T) - <X_perp, H> via parameter-space differences.

    Per node block: one patch evaluation at the nodes and one at each shifted
    row set x +- h e_a, whose sqrt(g) xi give the divergence by central
    differences; the mean curvature reads the nodes' Jacobians and frames."""
    n, k = patch.n, patch.k

    def sqrtg_xi(ys, j):
        jt = np.swapaxes(j, -1, -2)
        g = jt @ j
        xi = np.linalg.solve(g, jt @ xfield.value(ys)[..., None])[..., 0]
        return np.sqrt(np.linalg.det(g))[..., None] * xi

    vals = np.empty(rule.nodes.shape[0])
    # the Hessians are the widest per-node temporaries
    for sl in _blocks(len(vals), n * k * k):
        xs = rule.nodes[sl]
        ys, j = patch.rows(xs)
        frames, sg = orthonormal_frames(np.swapaxes(j, -1, -2))
        div = np.zeros(xs.shape[0])
        for a in range(k):
            e = DIVERGENCE_FD_STEP * np.eye(k)[a]
            div += (sqrtg_xi(*patch.rows(xs + e))[:, a]
                    - sqrtg_xi(*patch.rows(xs - e))[:, a]) / (2 * DIVERGENCE_FD_STEP)
        div /= sg
        # H is normal, so <X_perp, H> = <X, H>
        hvec = mean_curvature(frames, j, patch.hessians(xs))
        vals[sl] = (div - np.sum(xfield.value(ys) * hvec, axis=-1)) * sg
    return rule.integrate(vals)


def minimal_comparison(patch: Patch, xfield: VectorField, rule: QuadratureRule) -> dict:
    """Compare the flow first variation with the divergence / mean-curvature route."""
    family = lie_family(xfield)
    analytic = analytic_first_variation(patch, family, rule)
    fd_val, fd_err = flow_volume_derivative(patch, xfield, rule)
    div_route = divergence_route(patch, xfield, rule)
    return {
        "analytic_first_variation": analytic,
        "fd_first_variation": fd_val,
        "fd_error": fd_err,
        "divergence_route": div_route,
        "analytic_vs_divergence": abs(analytic - div_route),
        "fd_vs_divergence": abs(fd_val - div_route),
    }
