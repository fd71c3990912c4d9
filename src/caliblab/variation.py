"""Special metric-variation classes and executable volume-criticality experiments.

Each family records the analytic velocity h of the ambient metric along a
patch, the velocity of the calibration form, and (where a nonlinear family
exists) a black-box metric evaluator for finite-difference cross checks.
Analytic evaluators are batched over quadrature nodes; the experiments run
them over fixed-size blocks of nodes.  Position-dependent generators are
represented by their values and first derivatives along the patch only;
exterior derivatives of the test variations use the 2-jet of the distance
function, with terms linear in its gradient dropped since they vanish on the
patch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    evaluate,
    hodge_star,
    minors,
    star_coeffs,
    wedge,
    wedge_coeffs,
)
from .fields import FormField, UmBackground, VectorField
from .structures import (
    G2Kit,
    Spin7Kit,
    cayley_cross,
    chi_3fold,
    cross_2fold,
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

# quadrature nodes evaluated together; bounds the batched temporaries
NODE_BLOCK = 512

CASES = ("um", "associative", "coassociative", "cayley")

# sign of Tr_g h for each case's test variation, times the defect integrand;
# pinned by direct evaluation of the construction (see tests)
CHAIN_SIGN = {"um": 1.0, "associative": -1.0, "coassociative": 1.0, "cayley": 1.0}


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
    gbar_at: Callable | None = None   # (patch, x, t) -> ambient (n, n) metric, one point
    gbar0: Callable | None = None     # (patch, xs) -> (N, n, n) background; None is Euclidean
    meta: dict = field(default_factory=dict)


def _constant(form: KForm) -> Callable:
    return lambda patch, xs: form.coeffs[None]


def _at_positions(fn: Callable) -> Callable:
    """Batched evaluator from a function of one ambient point."""
    return lambda patch, xs: np.array([fn(y) for y in patch.positions(xs)])


def _antisym_mats(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Antisymmetric matrices (..., n, n) of 2-form coefficient rows."""
    i, j = np.triu_indices(n, 1)  # lexicographic pairs, the coefficient order
    out = np.zeros(coeffs.shape[:-1] + (n, n))
    out[..., i, j] = coeffs
    out[..., j, i] = -coeffs
    return out


# ---------------------------------------------------------------------------
# family constructors

def um_family_from_alpha(alphadot: FormField, background: UmBackground,
                         k: int) -> VariationFamily:
    """Metric family from omega_t = omega + t (d alphadot)^(1,1), fixed J."""
    if alphadot.n != background.n:
        raise ValueError("1-form field dimension does not match the background")
    J = background.J
    n = background.n

    def omega(patch, xs):
        # constant on the flat background: one row serves every node
        return background.omega_coeffs(patch.positions(xs[:1] if background.is_flat else xs))

    def wedge_omegas(c, om, first):
        # c ^ om^(k-1) / (first (first + 1) ... (first + k - 2))
        for i in range(k - 1):
            c = wedge_coeffs(c, om, n, 2 + 2 * i, 2) * (1.0 / (first + i))
        return c

    def h(patch, xs):
        aj = _antisym_mats(alphadot.d_coeffs_batch(patch.positions(xs)), n) @ J
        return 0.5 * (aj + np.swapaxes(aj, -1, -2))

    def mu_dot(patch, xs):
        return wedge_omegas(alphadot.d_coeffs_batch(patch.positions(xs)), omega(patch, xs), 1)

    def mu(patch, xs):
        om = omega(patch, xs)
        return wedge_omegas(om, om, 2)

    def gbar_at(patch, x, t):
        y = patch.position(x)
        a = alphadot.d(y).to_tensor()
        a11 = 0.5 * (a + J.T @ a @ J)
        omega_t = background.omega(y).to_tensor() + t * a11
        oj = omega_t @ J
        return 0.5 * (oj + oj.T)

    def gbar0(patch, xs):
        return background.metric(patch.positions(xs))

    return VariationFamily("um", h, mu_dot, mu, gbar_at,
                           None if background.is_flat else gbar0,
                           meta={"background": background, "k": k, "generator": alphadot})


def assoc_family_from_beta(betadot: FormField, kit: G2Kit) -> VariationFamily:
    """Metric family induced by phi_t = phi + t d(betadot)."""
    phi = kit.phi

    def d(patch, xs):
        return betadot.d_coeffs_batch(patch.positions(xs))

    def gbar_at(patch, x, t):
        eta = betadot.d(patch.position(x))
        return metric_from_3form(phi + t * eta)[0].entries

    return VariationFamily("associative", lambda p, xs: h_from_3form_batch(d(p, xs)), d,
                           _constant(phi), gbar_at, meta={"generator": betadot, "kit": kit})


def coassoc_family_from_gamma(gammadot: FormField, kit: G2Kit) -> VariationFamily:
    """Metric family induced by psi_t = psi + t d(gammadot); linearized route only."""

    def d(patch, xs):
        return gammadot.d_coeffs_batch(patch.positions(xs))

    return VariationFamily("coassociative", lambda p, xs: h_from_4form_batch(d(p, xs)), d,
                           _constant(kit.psi), meta={"generator": gammadot, "kit": kit})


def cayley_family_from_gamma(gammadot: FormField, kit: Spin7Kit,
                             keep_omega4_1: bool = False) -> VariationFamily:
    """Metric family with velocity pi_{35+7} d(gammadot).

    With keep_omega4_1 the pure-trace direction is retained (velocity
    pi_{1+35+7} d(gammadot)), which is exactly the direction the projected
    class excludes; it is kept available to demonstrate the failure mode.
    """

    def sigma(patch, xs):
        d = gammadot.d_coeffs_batch(patch.positions(xs))
        out = project_35_7_batch(d)
        if keep_omega4_1:
            u = _phi_unit()
            out = out + (d @ u)[:, None] * u
        return out

    def h(patch, xs):
        d = gammadot.d_coeffs_batch(patch.positions(xs))
        return (h_sp7_batch if keep_omega4_1 else h0_sp7_batch)(d)

    return VariationFamily("cayley", h, sigma, _constant(kit.Phi),
                           meta={"generator": gammadot, "kit": kit,
                                 "keep_omega4_1": keep_omega4_1})


def _phi_unit():
    kit = standard_kit("cayley")
    c = kit.Phi.coeffs.astype(float)
    return c / np.linalg.norm(c)


def lie_family(xfield: VectorField) -> VariationFamily:
    """Pullback family along the flow of an ambient field (Euclidean background)."""

    def lie_derivative(y):
        dx = xfield.jacobian(y)
        return dx + dx.T

    return VariationFamily("flow", _at_positions(lie_derivative), meta={"field": xfield})


def scaling_family(n: int) -> VariationFamily:
    """The family e^t gbar around the Euclidean metric."""

    def gbar_at(patch, x, t):
        return math.exp(t) * np.eye(n)

    return VariationFamily("scaling", lambda patch, xs: np.eye(n)[None], gbar_at=gbar_at)


def ambient_family(h_field, quadratic_field=None) -> VariationFamily:
    """Generic family gbar_t = I + t H(y) + t^2 K(y) with velocity H."""

    def gbar_at(patch, x, t):
        y = patch.position(x)
        g = np.eye(patch.n) + t * h_field.value(y)
        if quadratic_field is not None:
            g = g + t * t * quadratic_field.value(y)
        return g

    return VariationFamily("ambient", _at_positions(h_field.value), gbar_at=gbar_at)


# ---------------------------------------------------------------------------
# first variations

def _node_blocks(patch: Patch, rule: QuadratureRule):
    """(slice, parameter rows, Jacobians) over blocks of at most NODE_BLOCK nodes."""
    for start in range(0, rule.nodes.shape[0], NODE_BLOCK):
        sl = slice(start, start + NODE_BLOCK)
        xs = rule.nodes[sl]
        yield sl, xs, patch.jacobians(xs)


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


def analytic_first_variation(patch: Patch, family: VariationFamily,
                             rule: QuadratureRule) -> float:
    """(1/2) integral of Tr_g h over the patch by quadrature."""
    vals = np.empty(rule.nodes.shape[0])
    for sl, xs, jac in _node_blocks(patch, rule):
        half_tr, density, _ = _first_variation_integrand(patch, family, xs, jac)
        vals[sl] = half_tr * density
    return rule.integrate(vals)


def fd_first_variation(patch: Patch, family: VariationFamily, rule: QuadratureRule,
                       step: float = 1e-4, richardson_levels: int = 2):
    """Finite-difference d/dt of the volume along the family's metric evaluator."""
    if family.gbar_at is None:
        raise ValueError(f"family for case {family.case!r} has no nonlinear evaluator")
    jacs = [patch.jacobian(x) for x in rule.nodes]

    def vol(t):
        vals = np.empty(rule.nodes.shape[0])
        for i, x in enumerate(rule.nodes):
            g = jacs[i].T @ family.gbar_at(patch, x, t) @ jacs[i]
            vals[i] = math.sqrt(np.linalg.det(g))
        return rule.integrate(vals)

    return fd_derivative(vol, 0.0, step, richardson_levels)


# ---------------------------------------------------------------------------
# test variations (jet-reduced exterior derivatives along the patch)

def _tangent_frame(patch: Patch, x) -> np.ndarray:
    """Oriented orthonormal tangent rows; same frame Gram-Schmidt produces."""
    j = patch.jacobian(x)
    l = np.linalg.cholesky(j.T @ j)
    return (j @ np.linalg.inv(l).T).T


def _resolve_tangent(sel, frame: np.ndarray, patch: Patch, x) -> np.ndarray:
    if isinstance(sel, int):
        return frame[sel]
    if callable(sel):
        v = np.asarray(sel(x), float)
    else:
        v = np.asarray(sel, float)
    pn = normal_projector(patch, x)
    if np.linalg.norm(pn @ v) > TOL_FRAME * max(1.0, np.linalg.norm(v)):
        raise ValueError(f"selector {sel} is not tangent at x={x}")
    return v


def test_variation_derivative(case: str, patch: Patch, x, V=None, W=None) -> KForm:
    """Exterior derivative along the patch of the case's test variation.

    The generators themselves vanish on the patch (they are linear in the
    gradient of the distance function); only the derivative survives:

        um:            d adot = sum_i e^i ^ (J e_i_perp)
        associative:   d bdot = sum_i e^i ^ V ^ (V x e_i_perp)
        coassociative: d gdot = sum_i e^i ^ V ^ W ^ chi(V, W, e_i_perp)
        cayley:        d gdot = sum_i e^i ^ V ^ W ^ P(V, W, e_i_perp)
    """
    n = patch.n
    pn = normal_projector(patch, x)
    frame = _tangent_frame(patch, x)
    if case == "um":
        kit = standard_kit("um", m=n // 2, k=max(1, patch.k // 2))
        w = kit.J @ pn
        return KForm.from_tensor(w.T - w)
    if case == "associative":
        kit = standard_kit("associative")
        v = _resolve_tangent(V if V is not None else 0, frame, patch, x)
        out = KForm.zero(7, 3)
        vb = KForm.covector(v)
        for i in range(7):
            ci = cross_2fold(kit, v, pn[:, i])
            if np.any(ci):
                out = out + wedge(KForm.covector(np.eye(7)[i]), wedge(vb, KForm.covector(ci)))
        return out
    if case in ("coassociative", "cayley"):
        kit = standard_kit(case)
        v = _resolve_tangent(V if V is not None else 0, frame, patch, x)
        w = _resolve_tangent(W if W is not None else 1, frame, patch, x)
        vw = wedge(KForm.covector(v), KForm.covector(w))
        out = KForm.zero(kit.n, 4)
        for i in range(kit.n):
            if case == "coassociative":
                ci = chi_3fold(kit, v, w, pn[:, i])
            else:
                ci = cayley_cross(kit, v, w, pn[:, i])
            if np.any(ci):
                out = out + wedge(KForm.covector(np.eye(kit.n)[i]),
                                  wedge(vw, KForm.covector(ci)))
        return out
    raise ValueError(f"unknown case {case!r}")


test_variation_derivative.__test__ = False  # keep pytest from collecting it


def _test_variation_h(case: str, patch: Patch, x, V=None, W=None,
                      keep_omega4_1: bool = False) -> np.ndarray:
    """Ambient metric velocity of the test variation at a patch point."""
    d = test_variation_derivative(case, patch, x, V, W)
    if case == "um":
        kit = standard_kit("um", m=patch.n // 2, k=max(1, patch.k // 2))
        aj = d.to_tensor() @ kit.J
        return 0.5 * (aj + aj.T)
    if case == "associative":
        return h_from_3form_batch(d.coeffs)[0]
    if case == "coassociative":
        return h_from_4form_batch(d.coeffs)[0]
    return (h_sp7_batch if keep_omega4_1 else h0_sp7_batch)(d.coeffs)[0]


def test_variation_family(case: str, patch: Patch, V=None, W=None,
                          keep_omega4_1: bool = False) -> VariationFamily:
    """Family whose velocity is the jet-reduced test variation along the patch."""

    def h(p, xs):
        return np.array([_test_variation_h(case, p, x, V, W, keep_omega4_1) for x in xs])

    return VariationFamily(case, h, meta={"V": V, "W": W, "keep_omega4_1": keep_omega4_1})


test_variation_family.__test__ = False


def chain_trace(case: str, patch: Patch, x, V=None, W=None,
                keep_omega4_1: bool = False) -> float:
    """Tr_g h through the full chain: jet derivative -> decomposition -> trace."""
    j = patch.jacobian(x)
    g = j.T @ j
    h = _test_variation_h(case, patch, x, V, W, keep_omega4_1)
    return float(np.trace(np.linalg.solve(g, j.T @ h @ j)))


def closed_form_trace(case: str, patch: Patch, x, V=None, W=None) -> float:
    """The proof's closed-form value of Tr_g h for the test variation."""
    pn = normal_projector(patch, x)
    frame = _tangent_frame(patch, x)
    if case == "um":
        kit = standard_kit("um", m=patch.n // 2, k=max(1, patch.k // 2))
        total = sum(np.linalg.norm(pn @ (kit.J @ f)) ** 2 for f in frame)
        return CHAIN_SIGN[case] * float(total)
    if case == "associative":
        kit = standard_kit("associative")
        v = _resolve_tangent(V if V is not None else 0, frame, patch, x)
        total = sum(np.linalg.norm(pn @ cross_2fold(kit, v, f)) ** 2 for f in frame)
        return CHAIN_SIGN[case] * float(total)
    kit = standard_kit(case)
    v = _resolve_tangent(V if V is not None else 0, frame, patch, x)
    w = _resolve_tangent(W if W is not None else 1, frame, patch, x)
    if case == "coassociative":
        total = sum(np.linalg.norm(pn @ chi_3fold(kit, v, w, f)) ** 2 for f in frame)
        return CHAIN_SIGN[case] * float(total)
    total = 0.5 * sum(np.linalg.norm(pn @ cayley_cross(kit, v, w, f)) ** 2 for f in frame)
    return CHAIN_SIGN[case] * float(total)


def chain_consistency(case: str, patch: Patch, rule: QuadratureRule,
                      nodes=None) -> float:
    """Max pointwise gap between the chain trace and its closed form."""
    pts = rule.nodes if nodes is None else nodes
    selections = _canonical_selections(case, patch.k)
    worst = 0.0
    for x in pts:
        for sel in selections:
            got = chain_trace(case, patch, x, *sel)
            want = closed_form_trace(case, patch, x, *sel)
            worst = max(worst, abs(got - want))
    return worst


def _canonical_selections(case: str, k: int):
    if case == "um":
        return [()]
    if case == "associative":
        return [(a,) for a in range(k)]
    return [(a, b) for a in range(k) for b in range(a + 1, k)]


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
    selections = _canonical_selections(case, patch.k)

    def integrand(x):
        j = patch.jacobian(x)
        density = math.sqrt(np.linalg.det(j.T @ j))
        total = sum(abs(closed_form_trace(case, patch, x, *sel)) for sel in selections)
        return total * density

    if patch.flat:
        # constant integrand on axis planes
        center = 0.5 * (patch.box.lo + patch.box.hi)
        return integrand(center) * float(np.prod(patch.box.hi - patch.box.lo))
    vals = np.array([integrand(x) for x in rule.nodes])
    return rule.integrate(vals)


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
    fd_first_variation: float | None = None
    fd_error: float | None = None
    cayley_condition: float | None = None
    cayley_raw_identity_err: float | None = None
    um_dw_route: float | None = None
    tolerances: dict = field(default_factory=dict)
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
        for name in ("fd_first_variation", "fd_error", "cayley_condition",
                     "cayley_raw_identity_err", "um_dw_route"):
            val = getattr(self, name)
            if val is not None:
                out[name] = val
        return out


def theorem_A_experiment(case: str, patch: Patch, family: VariationFamily,
                         rule: QuadratureRule, tol_point: float = TOL_POINT,
                         tol_int: float = TOL_INT,
                         compute_fd: bool = False) -> TheoremVerdict:
    """Run the criticality experiment for one family on one patch.

    Checks (i) the analytic first variation, (ii) the pointwise integrand
    identity equating (1/2) Tr_g h vol with the velocity of the calibration
    form restricted to the patch, (iii) the direct quadrature of that
    restricted velocity (zero by Stokes on closed patches), and, in the
    Cayley case, the extra condition integral.

    One minors array per node serves every restriction: forms are evaluated
    on the coordinate frame through the Jacobian minors, and on the
    orthonormal tangent frame through the same minors over sqrt(det g).
    """
    cayley = case == "cayley"
    fv, value, identity, stokes, condition, raw = np.empty((6, rule.nodes.shape[0]))
    for sl, xs, jac in _node_blocks(patch, rule):
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
        d = family.meta["generator"].d_coeffs_batch(patch.positions(xs))
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
        defect_integral=theorem_B_defect(case, patch, rule),
        identity_max_err=float(identity.max()), stokes_value=rule.integrate(stokes),
        cayley_condition=rule.integrate(condition) if cayley else None,
        cayley_raw_identity_err=float(raw.max()) if cayley else None,
        tolerances={"point": tol_point, "int": tol_int},
    )
    orient_sign = -1.0 if cayley and plane_value < 0 else 1.0
    _finalize_verdict(verdict, case, patch, family, rule, tol_point, tol_int,
                      compute_fd, orient_sign)
    return verdict


def _finalize_verdict(verdict: TheoremVerdict, case: str, patch: Patch,
                      family: VariationFamily, rule: QuadratureRule,
                      tol_point: float, tol_int: float, compute_fd: bool,
                      orient_sign: float) -> None:
    fv = verdict.analytic_first_variation
    if compute_fd and family.gbar_at is not None:
        val, err = fd_first_variation(patch, family, rule)
        verdict.fd_first_variation = float(val)
        verdict.fd_error = float(err)
        verdict.passes["fd_matches"] = abs(val - fv) < tol_int
    if case == "um" and not family.meta["background"].is_flat and family.meta["k"] >= 2:
        verdict.um_dw_route = _um_dw_route(patch, family, rule)
        if verdict.calibrated:
            verdict.passes["dw_route_matches"] = abs(verdict.um_dw_route - fv) < tol_int
    if not verdict.calibrated:
        return
    verdict.passes["integrand_identity"] = verdict.identity_max_err < tol_point
    if case == "cayley":
        if not family.meta.get("keep_omega4_1"):
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
    k = family.meta["k"]
    vals = np.empty(rule.nodes.shape[0])
    for i, x in enumerate(rule.nodes):
        y = patch.position(x)
        form = wedge(alphadot.value(y), background.d_omega(y))
        for jj in range(1, k - 1):
            form = wedge(form, background.omega(y)) * (1.0 / jj)
        vals[i] = evaluate(form, patch.jacobian(x).T)
    return rule.integrate(vals)


# ---------------------------------------------------------------------------
# the Cayley anomaly and the minimal-submanifold comparison

def cayley_anomaly(patch: Patch, rule: QuadratureRule, V=0, W=1) -> dict:
    """Pointwise failure data for retaining the pure-trace direction.

    Returns the max deviation of (1/2)(Tr_g h - Tr_g h0) from (2/7)|V ^ W|^2
    and the max of |star(d gdot) restricted to the patch|.
    """
    max_dev = 0.0
    max_star = 0.0
    for x in rule.nodes:
        j = patch.jacobian(x)
        g = j.T @ j
        frame = _tangent_frame(patch, x)
        v = _resolve_tangent(V, frame, patch, x)
        w = _resolve_tangent(W, frame, patch, x)
        d = test_variation_derivative("cayley", patch, x, V, W)
        h_full = h_sp7_batch(d.coeffs)[0]
        h_zero = h0_sp7_batch(d.coeffs)[0]
        tr_full = np.trace(np.linalg.solve(g, j.T @ h_full @ j))
        tr_zero = np.trace(np.linalg.solve(g, j.T @ h_zero @ j))
        vw2 = (v @ v) * (w @ w) - (v @ w) ** 2
        max_dev = max(max_dev, abs(0.5 * (tr_full - tr_zero) - (2.0 / 7.0) * vw2))
        star_d = hodge_star(d)
        max_star = max(max_star, abs(evaluate(star_d, frame)))
    return {"trace_discrepancy_err": max_dev, "star_restriction_max": max_star}


def flow_volume_derivative(patch: Patch, xfield: VectorField, rule: QuadratureRule,
                           step: float = 1e-3, richardson_levels: int = 2,
                           rk4_steps: int = 8):
    """d/dt at 0 of the volume of the patch flowed along the field (FD oracle)."""
    base = [(x, patch.position(x), patch.jacobian(x)) for x in rule.nodes]

    def flowed_volume(t):
        vals = np.empty(len(base))
        for i, (x, y0, j0) in enumerate(base):
            y, m = y0.copy(), j0.copy()
            dt = t / rk4_steps
            for _ in range(rk4_steps):
                y, m = _rk4_flow_step(xfield, y, m, dt)
            vals[i] = math.sqrt(np.linalg.det(m.T @ m))
        return rule.integrate(vals)

    return fd_derivative(flowed_volume, 0.0, step, richardson_levels)


def _rk4_flow_step(xfield: VectorField, y, m, dt):
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


def divergence_route(patch: Patch, xfield: VectorField, rule: QuadratureRule,
                     fd_step: float = 1e-5) -> float:
    """Integral of div_g(X^T) - <X_perp, H> via parameter-space differences."""
    k = patch.k

    def sqrtg_xi(x):
        j = patch.jacobian(x)
        g = j.T @ j
        xi = np.linalg.solve(g, j.T @ xfield.value(patch.position(x)))
        return math.sqrt(np.linalg.det(g)) * xi

    vals = np.empty(rule.nodes.shape[0])
    for i, x in enumerate(rule.nodes):
        j = patch.jacobian(x)
        g = j.T @ j
        sg = math.sqrt(np.linalg.det(g))
        div = 0.0
        for a in range(k):
            e = np.zeros(k)
            e[a] = fd_step
            div += (sqrtg_xi(x + e)[a] - sqrtg_xi(x - e)[a]) / (2 * fd_step)
        div /= sg
        pn = np.eye(patch.n) - j @ np.linalg.solve(g, j.T)
        xperp = pn @ xfield.value(patch.position(x))
        hvec = mean_curvature(patch, x)
        vals[i] = (div - xperp @ hvec) * sg
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
