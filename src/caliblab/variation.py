"""Special metric-variation classes and executable volume-criticality experiments.

Each family records the analytic velocity h of the ambient metric along a
patch, the velocity of the calibration form, and (where a nonlinear family
exists) a black-box metric evaluator for finite-difference cross checks.
Analytic evaluators are batched over quadrature nodes; the experiments run
them over blocks of nodes whose length bounds the largest temporary, and the
routes that read only the tangent plane evaluate an affine patch's plane once.
Position-dependent generators are represented by their values and first
derivatives along the patch only; exterior derivatives of the test variations
use the 2-jet of the distance function, with terms linear in its gradient
dropped since they vanish on the patch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable

import numpy as np

from .decomposition import (
    h0_sp7_batch,
    h_from_3form_batch,
    h_from_4form_batch,
    h_sp7_batch,
    hat_sigma_batch,
    metric_from_3form,
    project_35_7_batch,
)
from .exterior import (
    KForm,
    minors,
    orthonormal_frames,
    star_coeffs,
    wedge_coeffs,
)
from .fields import FormField, UmBackground, VectorField
from .structures import (
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
TOL_FRAME = 1e-9

# FD oracles: t-steps of the family volume and the flowed volume, the parameter
# step of the divergence route, Richardson levels, RK4 steps of one flow
FD_STEP = 1e-4
FLOW_FD_STEP = 1e-3
DIVERGENCE_FD_STEP = 1e-5
RICHARDSON_LEVELS = 2
FLOW_RK4_STEPS = 8

CASES = ("um", "associative", "coassociative", "cayley")

# Tr_g h of the test variation over sum_f |pi_N cross(S, f)|^2; the sign is
# pinned by direct evaluation of the construction (see tests)
CLOSED_FORM_SCALE = {"um": 1.0, "associative": -1.0, "coassociative": 1.0, "cayley": 0.5}


@dataclass
class VariationFamily:
    """A one-parameter metric variation with analytic velocity along a patch.

    The batched evaluators take a patch and parameter rows xs (N, k) and
    return one row per node, or a single row that holds at every node.
    """
    case: str
    h: Callable                       # (patch, xs) -> (N, n, n) ambient velocity
    mu_dot: Callable | None = None    # (patch, xs) -> (N, C(n, p)) calibration-form velocity
    mu: Callable | None = None        # (patch, xs) -> (N, C(n, p)) calibration form
    gbar_at: Callable | None = None   # (ys, t) -> ambient metrics (..., n, n) at points (..., n)
    gbar0: Callable | None = None     # (patch, xs) -> (N, n, n) background; None is Euclidean
    meta: dict = field(default_factory=dict)


def _constant(form: KForm) -> Callable:
    return lambda patch, xs: form.coeffs[None]


@lru_cache(maxsize=None)
def _pair_indices(n: int):
    return np.triu_indices(n, 1)  # lexicographic pairs, the coefficient order


def _antisym_mats(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Antisymmetric matrices (..., n, n) of 2-form coefficient rows."""
    i, j = _pair_indices(n)
    out = np.zeros(coeffs.shape[:-1] + (n, n))
    out[..., i, j] = coeffs
    out[..., j, i] = -coeffs
    return out


def _linearized_metric(kit, coeffs: np.ndarray, keep_omega4_1: bool = False) -> np.ndarray:
    """Ambient metric velocities (N, n, n) of velocity rows (N, C(n, p)) of omega
    (fixed J), phi, psi or Phi (trace-free unless keep_omega4_1)."""
    if kit.case == "um":
        aj = _antisym_mats(coeffs, kit.n) @ kit.tensor.T  # J = omega's tensor transposed
        return 0.5 * (aj + np.swapaxes(aj, -1, -2))
    if kit.case == "associative":
        return h_from_3form_batch(coeffs)
    if kit.case == "coassociative":
        return h_from_4form_batch(coeffs)
    return (h_sp7_batch if keep_omega4_1 else h0_sp7_batch)(coeffs)


# ---------------------------------------------------------------------------
# family constructors

def um_family_from_alpha(alphadot: FormField, background: UmBackground,
                         k: int) -> VariationFamily:
    """Metric family from omega_t = omega + t (d alphadot)^(1,1), fixed J."""
    if alphadot.n != background.n:
        raise ValueError("1-form field dimension does not match the background")
    kit = standard_kit("um", background.m, k)
    J, n = kit.tensor.T, kit.n

    def omega(patch, xs):
        # constant on the flat background: one row serves every node
        return background.omega_coeffs(patch.positions(xs[:1] if background.is_flat else xs))

    def wedge_omegas(c, om, first):
        # c ^ om^(k-1) / (first (first + 1) ... (first + k - 2))
        for i in range(k - 1):
            c = wedge_coeffs(c, om, n, 2 + 2 * i, 2) * (1.0 / (first + i))
        return c

    def h(patch, xs):
        return _linearized_metric(kit, alphadot.d_coeffs(patch.positions(xs)))

    def mu_dot(patch, xs):
        return wedge_omegas(alphadot.d_coeffs(patch.positions(xs)), omega(patch, xs), 1)

    def mu(patch, xs):
        om = omega(patch, xs)
        return wedge_omegas(om, om, 2)

    def gbar_at(ys, t):
        a = _antisym_mats(alphadot.d_coeffs(ys), n)
        omega_t = _antisym_mats(background.omega_coeffs(ys), n) + t * 0.5 * (a + J.T @ a @ J)
        oj = omega_t @ J
        return 0.5 * (oj + np.swapaxes(oj, -1, -2))

    def gbar0(patch, xs):
        return background.metric(patch.positions(xs))

    return VariationFamily("um", h, mu_dot, mu, gbar_at,
                           None if background.is_flat else gbar0,
                           meta={"background": background, "k": k, "generator": alphadot})


def assoc_family_from_beta(betadot: FormField, kit: Kit) -> VariationFamily:
    """Metric family induced by phi_t = phi + t d(betadot)."""
    phi = kit.form

    def d(patch, xs):
        return betadot.d_coeffs(patch.positions(xs))

    def gbar_at(ys, t):
        return metric_from_3form(phi.coeffs + t * betadot.d_coeffs(ys))[0]

    return VariationFamily("associative", lambda p, xs: _linearized_metric(kit, d(p, xs)), d,
                           _constant(phi), gbar_at, meta={"generator": betadot, "kit": kit})


def coassoc_family_from_gamma(gammadot: FormField, kit: Kit) -> VariationFamily:
    """Metric family induced by psi_t = psi + t d(gammadot); linearized route only."""

    def d(patch, xs):
        return gammadot.d_coeffs(patch.positions(xs))

    return VariationFamily("coassociative", lambda p, xs: _linearized_metric(kit, d(p, xs)), d,
                           _constant(kit.form), meta={"generator": gammadot, "kit": kit})


def cayley_family_from_gamma(gammadot: FormField, kit: Kit,
                             keep_omega4_1: bool = False) -> VariationFamily:
    """Metric family with velocity pi_{35+7} d(gammadot).

    With keep_omega4_1 the pure-trace direction is retained (velocity
    pi_{1+35+7} d(gammadot)), which is exactly the direction the projected
    class excludes; it is kept available to demonstrate the failure mode.
    """

    def sigma(patch, xs):
        d = gammadot.d_coeffs(patch.positions(xs))
        out = project_35_7_batch(d)
        if keep_omega4_1:
            u = _phi_unit()
            out = out + (d @ u)[:, None] * u
        return out

    def h(patch, xs):
        return _linearized_metric(kit, gammadot.d_coeffs(patch.positions(xs)),
                                  keep_omega4_1)

    return VariationFamily("cayley", h, sigma, _constant(kit.form),
                           meta={"generator": gammadot, "kit": kit,
                                 "keep_omega4_1": keep_omega4_1})


@lru_cache(maxsize=None)
def _phi_unit():
    c = standard_kit("cayley").form.coeffs
    return c / np.linalg.norm(c)


def lie_family(xfield: VectorField) -> VariationFamily:
    """Pullback family along the flow of an ambient field (Euclidean background)."""

    def lie_derivative(patch, xs):
        dx = xfield.jacobian(patch.positions(xs))
        return dx + np.swapaxes(dx, -1, -2)

    return VariationFamily("flow", lie_derivative, meta={"field": xfield})


def scaling_family(n: int) -> VariationFamily:
    """The family e^t gbar around the Euclidean metric."""

    def gbar_at(ys, t):
        return np.broadcast_to(math.exp(t) * np.eye(n), np.shape(ys)[:-1] + (n, n))

    return VariationFamily("scaling", lambda patch, xs: np.eye(n)[None], gbar_at=gbar_at)


def ambient_family(h_field, quadratic_field=None) -> VariationFamily:
    """Generic family gbar_t = I + t H(y) + t^2 K(y) with velocity H."""

    def gbar_at(ys, t):
        g = np.eye(np.shape(ys)[-1]) + t * h_field.value(ys)
        if quadratic_field is not None:
            g = g + t * t * quadratic_field.value(ys)
        return g

    return VariationFamily("ambient", lambda patch, xs: h_field.value(patch.positions(xs)),
                           gbar_at=gbar_at)


# ---------------------------------------------------------------------------
# first variations

def _trace_g(g: np.ndarray, jac: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Tr_g of the restriction J^T h J at each node."""
    jt = np.swapaxes(jac, -1, -2)
    # inverting g, not solving against it, inverts a flat patch's single g once
    return np.einsum("...ab,...ba->...", np.linalg.inv(g), jt @ h @ jac)


def _first_variation_integrand(patch: Patch, family: VariationFamily, xs, jac):
    """(1/2) Tr_g h, sqrt(det g) and the induced metric g at the nodes."""
    jt = np.swapaxes(jac, -1, -2)
    g = jt @ jac if family.gbar0 is None else jt @ family.gbar0(patch, xs) @ jac
    return 0.5 * _trace_g(g, jac, family.h(patch, xs)), np.sqrt(np.linalg.det(g)), g


def _integrand_floats(n: int) -> int:
    """Floats a node takes in the integrand's widest row: an (n, n) metric
    velocity or a coefficient row of middle degree."""
    return max(n * n, math.comb(n, n // 2))


def analytic_first_variation(patch: Patch, family: VariationFamily,
                             rule: QuadratureRule) -> float:
    """(1/2) integral of Tr_g h over the patch by quadrature."""
    vals = np.empty(rule.nodes.shape[0])
    for sl in _blocks(len(vals), _integrand_floats(patch.n)):
        xs = rule.nodes[sl]
        half_tr, density, _ = _first_variation_integrand(patch, family, xs, patch.jacobians(xs))
        vals[sl] = half_tr * density
    return rule.integrate(vals)


def fd_first_variation(patch: Patch, family: VariationFamily, rule: QuadratureRule):
    """Finite-difference d/dt of the volume along the family's metric evaluator."""
    if family.gbar_at is None:
        raise ValueError(f"family for case {family.case!r} has no nonlinear evaluator")
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
# selection S of arity - 1 tangent vectors.  The helpers take stacked nodes:
# frames (..., k, n), normal projectors (..., n, n), selection vectors (..., n).

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


def _selectors(kit, frames, V=None, W=None) -> list:
    """(selector, is a frame-row index) of the selection (V, W), rows 0 and 1 by default."""
    return [(sel, isinstance(sel, int) and 0 <= sel < frames.shape[-2])
            for sel in (0 if V is None else V, 1 if W is None else W)[: kit.arity - 1]]


def _selection(kit, frames, V=None, W=None) -> list:
    """The vectors of the selection (V, W) along frames (..., k, n): frame row
    indices (0 and 1 by default) or fixed tangent vectors (n,)."""
    out = []
    for sel, is_row in _selectors(kit, frames, V, W):
        if is_row:  # frame rows are tangent
            out.append(frames[..., sel, :])
            continue
        if np.shape(sel) != (kit.n,):
            raise ValueError(f"selector {sel!r} is not a frame-row index or an (n,) vector")
        v = np.asarray(sel, float)
        off = np.linalg.norm(v @ normal_projector(frames), axis=-1)
        if np.any(off > TOL_FRAME * max(1.0, np.linalg.norm(v))):
            raise ValueError(f"selector {sel} is not tangent to the patch")
        out.append(v)
    return out


def _derivative(kit, p_normal: np.ndarray, S) -> np.ndarray:
    """Coefficients (..., C(n, arity + 1)) of sum_i e^i ^ S ^ cross(S, pi_N e_i)."""
    # rows[..., i, :, :] is [e_i, *S, cross(S, pi_N e_i)]
    crossed = kit.cross(*(v[..., None, :] for v in S), p_normal)
    rows = np.empty(crossed.shape[:-1] + (len(S) + 2, kit.n))
    rows[..., 0, :] = np.eye(kit.n)
    for j, v in enumerate(S, 1):
        rows[..., j, :] = v[..., None, :]
    rows[..., -1, :] = crossed
    return minors(rows).sum(axis=-2)


def _velocity(kit, p_normal, S, keep_omega4_1: bool = False) -> np.ndarray:
    """Ambient metric velocities (..., n, n) of the test variation: derivative
    minors -> h-map."""
    d = _derivative(kit, p_normal, S)
    h = _linearized_metric(kit, d.reshape(-1, d.shape[-1]), keep_omega4_1)
    return h.reshape(d.shape[:-1] + h.shape[-2:])


def _trace(frame: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Tr_g of the restriction of h, from orthonormal tangent frames."""
    return np.einsum("...an,...nm,...am->...", frame, h, frame)


def _minors_floats(kit) -> int:
    """Floats a node takes in the derivative minors of one selection."""
    return kit.n * math.comb(kit.n, kit.arity + 1)


def test_variation_derivative(case: str, frames: np.ndarray, V=None, W=None) -> np.ndarray:
    """Exterior derivative along the patch of the case's test variation, as
    coefficient rows (..., C(n, arity + 1)) along orthonormal tangent frames
    (..., k, n).

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


def test_variation_family(case: str, V=None, W=None,
                          keep_omega4_1: bool = False) -> VariationFamily:
    """Family whose velocity is the jet-reduced test variation along a patch."""

    def h(p, xs):
        kit = _kit(case, p.k, p.n)

        def velocity(frames, _):
            return _velocity(kit, normal_projector(frames), _selection(kit, frames, V, W),
                             keep_omega4_1)

        return _over_planes(p, xs, _minors_floats(kit), velocity)

    return VariationFamily(case, h, meta={"V": V, "W": W, "keep_omega4_1": keep_omega4_1})


test_variation_family.__test__ = False


def chain_trace(case: str, frames: np.ndarray, V=None, W=None,
                keep_omega4_1: bool = False) -> np.ndarray:
    """Tr_g h through the full chain (jet derivative -> decomposition -> trace)
    along orthonormal tangent frames (..., k, n), shape (...)."""
    kit = _kit(case, *frames.shape[-2:])
    S = _selection(kit, frames, V, W)
    return _trace(frames, _velocity(kit, normal_projector(frames), S, keep_omega4_1))


def closed_form_trace(case: str, frames: np.ndarray, V=None, W=None) -> np.ndarray:
    """The proof's closed-form value of Tr_g h for the test variation,
    scale * sum_f |pi_N cross(S, f)|^2, along orthonormal tangent frames
    (..., k, n), shape (...)."""
    kit = _kit(case, *frames.shape[-2:])
    S = _selection(kit, frames, V, W)
    # cross(S, f) = 0 for a frame row f in S: S meets only the other rows
    in_S = {sel for sel, is_row in _selectors(kit, frames, V, W) if is_row}
    rows = frames[..., [f for f in range(frames.shape[-2]) if f not in in_S], :]
    crossed = kit.cross(*(v[..., None, :] for v in S), rows)
    normal = crossed - (crossed @ np.swapaxes(frames, -1, -2)) @ frames
    return CLOSED_FORM_SCALE[case] * np.sum(normal * normal, axis=(-2, -1))


def chain_consistency(case: str, patch: Patch, rule: QuadratureRule,
                      nodes=None) -> float:
    """Max gap |chain_trace - closed_form_trace| over the nodes and the
    canonical selections, on one frame evaluation per node block."""
    pts = rule.nodes if nodes is None else np.asarray(nodes, float)

    def gaps(frames, _):
        return np.max([np.abs(chain_trace(case, frames, *sel)
                              - closed_form_trace(case, frames, *sel))
                       for sel in _canonical_selections(case, patch.k, patch.n)], axis=0)

    return float(_over_planes(patch, pts, _minors_floats(_kit(case, patch.k, patch.n)),
                              gaps).max())


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
    2 |first variation| of the matching test-variation family.
    """
    kit = _kit(case, patch.k, patch.n)
    scale = abs(CLOSED_FORM_SCALE[case])

    def defect(frames, density):
        return scale * density * invariance_defect(kit, frames)

    # the defect's largest temporary is the gather of each product's rows
    per_node = math.comb(patch.k, kit.arity) * kit.arity * patch.n
    return rule.integrate(_over_planes(patch, rule.nodes, per_node, defect))


# ---------------------------------------------------------------------------
# theorem A verdicts

@dataclass
class TheoremVerdict:
    case: str
    patch: str
    calibrated: bool
    plane_value: float
    plane_defect: float
    analytic_first_variation: float
    defect_integral: float
    identity_max_err: float
    stokes_value: float
    cayley_condition: float | None = None
    cayley_raw_identity_err: float | None = None
    um_dw_route: float | None = None
    passes: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    def scalars(self) -> dict:
        out = {
            "calibrated": self.calibrated,
            "plane_value": self.plane_value,
            "plane_defect": self.plane_defect,
            "analytic_first_variation": self.analytic_first_variation,
            "defect_integral": self.defect_integral,
            "identity_max_err": self.identity_max_err,
            "stokes_value": self.stokes_value,
        }
        for name in ("cayley_condition", "cayley_raw_identity_err", "um_dw_route"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out


def theorem_A_experiment(case: str, patch: Patch, family: VariationFamily,
                         rule: QuadratureRule, tol_point: float = TOL_POINT,
                         tol_int: float = TOL_INT,
                         defect_integral: float | None = None) -> TheoremVerdict:
    """Run the criticality experiment for one family on one patch.

    Checks (i) the analytic first variation, (ii) the pointwise integrand
    identity equating (1/2) Tr_g h vol with the velocity of the calibration
    form restricted to the patch, (iii) the direct quadrature of that
    restricted velocity (zero by Stokes on closed patches), and, in the
    Cayley case, the extra condition integral.  The verdict carries the
    patch's theorem_B_defect, computed here unless ``defect_integral`` gives
    it; it does not depend on the family.

    One minors array per node serves every restriction: forms are evaluated
    on the coordinate frame through the Jacobian minors, and on the
    orthonormal tangent frame through the same minors over sqrt(det g).
    """
    cayley = case == "cayley"
    fv, value, identity, stokes, condition, raw = np.empty((6, rule.nodes.shape[0]))
    for sl in _blocks(len(fv), _integrand_floats(patch.n)):
        xs = rule.nodes[sl]
        jac = patch.jacobians(xs)
        half_tr, density, g = _first_variation_integrand(patch, family, xs, jac)
        fv[sl] = half_tr * density
        jac_minors = minors(np.swapaxes(jac, -1, -2))
        frame = jac_minors / density[:, None]
        value[sl] = np.sum(family.mu(patch, xs) * frame, axis=-1)
        # the calibrated orientation of the tangent frame
        orient = np.where(value[sl] < 0, -1.0, 1.0)
        mu_dot = family.mu_dot(patch, xs)
        identity[sl] = np.abs(half_tr - orient * np.sum(mu_dot * frame, axis=-1))
        if not cayley:
            stokes[sl] = np.sum(mu_dot * jac_minors, axis=-1)
            continue
        # Stokes route uses the exact form d(gammadot), not its projection
        d = family.meta["generator"].d_coeffs(patch.positions(xs))
        star_d = star_coeffs(d, patch.n, 4)
        stokes[sl] = np.sum(d * jac_minors, axis=-1)
        condition[sl] = np.sum(star_d * jac_minors, axis=-1)
        # raw trace identity Tr_g h(sigma) = sigma_T - sigma_N + Tr(sigma^)/168 for
        # unprojected sigma (valid along Cayley planes), where sigma_N, sigma on
        # the completing normal frame, is (*sigma) on the oriented tangent frame
        sig_tn = orient * np.sum((d - star_d) * frame, axis=-1)
        tr_hat = np.trace(hat_sigma_batch(d), axis1=-2, axis2=-1)
        raw[sl] = np.abs(_trace_g(g, jac, h_sp7_batch(d)) - (sig_tn + tr_hat / 168.0))

    plane_value = float(value[0])
    plane_defect = float(np.max(np.abs(np.abs(value) - 1.0)))
    verdict = TheoremVerdict(
        case=case, patch=patch.name, calibrated=plane_defect < 1e-8,
        plane_value=plane_value, plane_defect=plane_defect,
        analytic_first_variation=rule.integrate(fv),
        defect_integral=(theorem_B_defect(case, patch, rule) if defect_integral is None
                         else defect_integral),
        identity_max_err=float(identity.max()), stokes_value=rule.integrate(stokes),
        cayley_condition=rule.integrate(condition) if cayley else None,
        cayley_raw_identity_err=float(raw.max()) if cayley else None,
    )
    orient_sign = -1.0 if cayley and plane_value < 0 else 1.0
    _finalize_verdict(verdict, case, patch, family, rule, tol_point, tol_int, orient_sign)
    return verdict


def _finalize_verdict(verdict: TheoremVerdict, case: str, patch: Patch,
                      family: VariationFamily, rule: QuadratureRule,
                      tol_point: float, tol_int: float, orient_sign: float) -> None:
    fv = verdict.analytic_first_variation
    if case == "um" and not family.meta["background"].is_flat and family.meta["k"] >= 2:
        verdict.um_dw_route = _um_dw_route(patch, family, rule)
        if verdict.calibrated:
            verdict.passes["dw_route_matches"] = abs(verdict.um_dw_route - fv) < tol_int
    if not verdict.calibrated:
        return
    verdict.passes["integrand_identity"] = verdict.identity_max_err < tol_point
    if case == "cayley":
        if not family.meta.get("keep_omega4_1"):
            if patch.closed:  # both integrals vanish by Stokes only on a closed patch
                verdict.passes["condition_holds"] = abs(verdict.cayley_condition) < tol_int
                verdict.passes["first_variation_zero"] = abs(fv) < tol_int
            star_route = 0.5 * orient_sign * (verdict.stokes_value - verdict.cayley_condition)
            verdict.passes["star_route"] = abs(fv - star_route) < tol_int
    elif verdict.um_dw_route is None and patch.closed:
        verdict.passes["first_variation_zero"] = abs(fv) < tol_int
        verdict.passes["stokes_zero"] = abs(verdict.stokes_value) < tol_int


def _um_dw_route(patch: Patch, family: VariationFamily, rule: QuadratureRule) -> float:
    """Quadrature of adot ^ d omega ^ omega^{k-2} / (k-2)! restricted to the patch."""
    background: UmBackground = family.meta["background"]
    alphadot: FormField = family.meta["generator"]
    k, n = family.meta["k"], patch.n
    vals = np.empty(rule.nodes.shape[0])
    # a wedge keeps about four rows of its output width alive, none wider than C(n, n/2)
    for sl in _blocks(len(vals), 4 * math.comb(n, n // 2)):
        xs = rule.nodes[sl]
        ys = patch.positions(xs)
        form = wedge_coeffs(alphadot.value_coeffs(ys), background.d_omega_coeffs(ys), n, 1, 3)
        for jj in range(1, k - 1):
            form = wedge_coeffs(form, background.omega_coeffs(ys), n, 2 + 2 * jj, 2) * (1.0 / jj)
        vals[sl] = np.sum(form * minors(np.swapaxes(patch.jacobians(xs), -1, -2)), axis=-1)
    return rule.integrate(vals)


# ---------------------------------------------------------------------------
# the Cayley anomaly and the minimal-submanifold comparison

def cayley_anomaly(patch: Patch, rule: QuadratureRule, V=0, W=1) -> dict:
    """Pointwise failure data for retaining the pure-trace direction.

    Returns the max deviation of (1/2)(Tr_g h - Tr_g h0) from (2/7)|V ^ W|^2
    and the max of |star(d gdot) restricted to the patch|.
    """
    kit = standard_kit("cayley")

    def failures(frames, _):
        v, w = _selection(kit, frames, V, W)
        d = _derivative(kit, normal_projector(frames), (v, w))
        half_gap = 0.5 * _trace(frames, h_sp7_batch(d) - h0_sp7_batch(d))
        vw2 = np.sum(v * v, -1) * np.sum(w * w, -1) - np.sum(v * w, -1) ** 2
        star = np.sum(star_coeffs(d, 8, 4) * minors(frames), axis=-1)
        return np.stack([np.abs(half_gap - (2.0 / 7.0) * vw2), np.abs(star)], axis=-1)

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
