"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import math
import time

import numpy as np
import pytest

from caliblab.decomposition import (
    h0_sp7_batch,
    h_from_3form_batch,
    h_from_4form_batch,
    h_sp7_batch,
    hat_eta_batch,
    hat_rho_batch,
    hat_sigma_batch,
    metric_from_3form,
    project_35_7_batch,
)
from caliblab.exterior import KForm, interior, orthonormal_frames, wedge
from caliblab.fields import FormField, SymTensorField, UmBackground, VectorField
from caliblab.smith import (
    MapTriple,
    calibration_integral,
    energy_first_variation_domain,
    energy_first_variation_target,
    k_energy,
    k_volume,
)
from caliblab.structures import (
    associative_equality_residuals,
    coassociative_equality_residuals,
    g2_identity_violations,
    spin7_identity_violations,
    standard_kit,
)
from caliblab.submanifold import (
    QuadratureRule,
    circle_patch,
    fd_derivative,
    flat_plane,
    graph_patch,
    jet_of_F,
    normal_projector,
    sphere_patch,
    torus_patch,
    volume,
)
from caliblab.variation import (
    ambient_family,
    analytic_first_variation,
    assoc_family_from_beta,
    cayley_anomaly,
    cayley_family_from_gamma,
    chain_consistency,
    coassoc_family_from_gamma,
    fd_first_variation,
    minimal_comparison,
    plane_catalog,
    scaling_family,
    theorem_A_experiment,
    theorem_B_defect,
    um_family_from_alpha,
)

G2 = standard_kit("associative")
COASSOC = standard_kit("coassociative")
SP7 = standard_kit("cayley")


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_exact_identities():
    t0 = time.perf_counter()
    g2 = g2_identity_violations(G2.tensor, COASSOC.tensor)
    sp = spin7_identity_violations(SP7.tensor)
    elapsed = time.perf_counter() - t0
    worst = max(list(g2.values()) + list(sp.values()))
    passed = worst == 0 and len(g2) == 6 and len(sp) == 2 and elapsed < 1.0
    report(1, passed,
           f"8 contraction identity families exact (max violation {worst}, {elapsed:.3f}s)")


def test_criterion_02_equalities():
    rng = np.random.default_rng(2024)
    xs = rng.standard_normal((4, 10_000, 7))
    worst_a = float(np.abs(associative_equality_residuals(*xs[:3])).max())
    worst_c = float(np.abs(coassociative_equality_residuals(*xs)).max())
    passed = worst_a < 1e-10 and worst_c < 1e-10
    report(2, passed,
           f"associative/coassociative equalities over 10^4 tuples "
           f"(residuals {worst_a:.2e}, {worst_c:.2e})")


def test_criterion_03_decomposition_lemmas():
    from caliblab.decomposition import _g2_maps, _sp7_maps

    rng = np.random.default_rng(3)
    count = 1000
    worst = 0.0

    # 3-forms on R^7
    eta = rng.standard_normal((count, 35))
    h3 = h_from_3form_batch(eta)
    trace_gap = np.abs(2 * np.trace(hat_eta_batch(eta), axis1=1, axis2=2)
                       - 18 * np.trace(h3, axis1=1, axis2=2)).max()
    worst = max(worst, float(trace_gap) / 100.0)  # scale: traces are O(100)
    asm3 = _g2_maps()[2]
    x3map = _g2_maps()[4]
    part = h3.reshape(count, 49) @ asm3.T
    resid = eta - part
    xs = resid @ x3map.T
    psi_cols = np.stack([(0.5 * interior(np.eye(7)[j], COASSOC.form)).coeffs for j in range(7)])
    rebuilt = part + xs @ psi_cols
    worst = max(worst, float(np.abs(rebuilt - eta).max()))
    again = h_from_3form_batch(rebuilt)
    worst = max(worst, float(np.abs(again - h3).max()))

    # 4-forms on R^7
    rho = rng.standard_normal((count, 35))
    h4 = h_from_4form_batch(rho)
    trace_gap = np.abs(2 * np.trace(hat_rho_batch(rho), axis1=1, axis2=2)
                       - 96 * np.trace(h4, axis1=1, axis2=2)).max()
    worst = max(worst, float(trace_gap) / 100.0)
    asm4 = _g2_maps()[3]
    x4map = _g2_maps()[5]
    part4 = h4.reshape(count, 49) @ asm4.T
    xs4 = (rho - part4) @ x4map.T
    phi_cols = np.stack([(0.5 * wedge(KForm.covector(np.eye(7)[j]), G2.form)).coeffs
                         for j in range(7)])
    rebuilt4 = part4 + xs4 @ phi_cols
    worst = max(worst, float(np.abs(rebuilt4 - rho).max()))

    # 4-forms on R^8
    sig = rng.standard_normal((count, 70))
    h8 = h_sp7_batch(sig)
    h80 = h0_sp7_batch(sig)
    trace_gap = np.abs(2 * np.trace(hat_sigma_batch(sig), axis1=1, axis2=2)
                       - 168 * np.trace(h8, axis1=1, axis2=2)).max()
    worst = max(worst, float(trace_gap) / 100.0)
    tracefree = float(np.abs(np.trace(h80, axis1=1, axis2=2)).max())
    worst = max(worst, tracefree)
    asm8 = _sp7_maps()[1]
    part8 = h8.reshape(count, 64) @ asm8.T
    resid8 = sig - part8
    q7 = _sp7_maps()[3]
    part7 = (resid8 @ q7) @ q7.T
    rebuilt8 = part8 + part7 + (resid8 - part7)
    worst = max(worst, float(np.abs(rebuilt8 - sig).max()))

    report(3, worst < 1e-12,
           f"decomposition lemma round-trips and trace relations over 10^3 forms "
           f"(worst deviation {worst:.2e})")


def test_criterion_04_metric_linearization():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        eta = KForm(7, 3, rng.standard_normal(35))
        h = h_from_3form_batch(eta.coeffs)[0]
        fd, _ = fd_derivative(lambda t: metric_from_3form((G2.form + t * eta).coeffs)[0],
                              0.0, step=1e-4, richardson_levels=2)
        worst = max(worst, float(np.abs(fd - h).max() / np.abs(h).max()))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-5 and elapsed < 10.0
    report(4, passed,
           f"metric linearization over 100 directions (rel err {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_05_theorem_A_all_cases():
    rng = np.random.default_rng(5)
    worst_fv = 0.0
    worst_identity = 0.0
    runs = []

    p = flat_plane((1, 2), 6, name="t2-in-r6")
    bg = UmBackground.flat(3)
    for _ in range(20):
        fam = um_family_from_alpha(FormField.random_fourier(6, 1, rng), bg, 1)
        runs.append(("um", p, fam))
    p4 = flat_plane((1, 2, 3, 4), 6, name="t4-in-r6")
    for _ in range(20):
        fam = um_family_from_alpha(FormField.random_fourier(6, 1, rng), bg, 2)
        runs.append(("um", p4, fam))
    p3 = flat_plane((1, 2, 3), 7, name="t3-in-r7")
    for _ in range(20):
        fam = assoc_family_from_beta(FormField.random_fourier(7, 2, rng), G2)
        runs.append(("associative", p3, fam))
    p47 = flat_plane((4, 5, 6, 7), 7, name="t4-in-r7")
    for _ in range(20):
        fam = coassoc_family_from_gamma(FormField.random_fourier(7, 3, rng), COASSOC)
        runs.append(("coassociative", p47, fam))
    p48 = flat_plane((1, 2, 3, 4), 8, name="t4-in-r8")
    for _ in range(20):
        gen = FormField.random_fourier(8, 3, rng, frequency_axes=(1, 2, 3, 4))
        runs.append(("cayley", p48, cayley_family_from_gamma(gen, SP7)))

    all_pass = True
    for case, patch, fam in runs:
        rule = QuadratureRule(patch.box, 8)
        v = theorem_A_experiment(case, patch, fam, rule, tol_point=1e-8, tol_int=1e-6)
        worst_fv = max(worst_fv, abs(v.analytic_first_variation))
        worst_identity = max(worst_identity, v.identity_max_err)
        all_pass = all_pass and v.calibrated and v.all_pass

    passed = all_pass and worst_fv < 1e-6 and worst_identity < 1e-8
    report(5, passed,
           f"theorem A on closed calibrated tori, 20 generators x 4 cases "
           f"(max |dV/dt| {worst_fv:.2e}, identity err {worst_identity:.2e})")


def test_criterion_06_theorem_B_defects():
    worst_good = 0.0
    worst_chain = 0.0
    least_bad = float("inf")
    counts = {}
    for case in ("um", "associative", "coassociative", "cayley"):
        good, bad = plane_catalog(case)
        counts[case] = (len(good), len(bad))
        for patch in good + bad:
            rule = QuadratureRule(patch.box, 2)
            defect = theorem_B_defect(case, patch, rule)
            if patch in good:
                worst_good = max(worst_good, defect)
            else:
                least_bad = min(least_bad, defect)
            worst_chain = max(worst_chain,
                              chain_consistency(case, patch, rule, nodes=rule.nodes[:1]))
    sizes_ok = all(g >= 6 and b >= 6 for g, b in counts.values())
    passed = sizes_ok and worst_good < 1e-10 and least_bad > 1e-3 and worst_chain < 1e-8
    report(6, passed,
           f"theorem B defects on the plane catalog (calibrated max {worst_good:.2e}, "
           f"non-calibrated min {least_bad:.2e}, chain err {worst_chain:.2e})")


def test_criterion_07_cayley_anomaly():
    p = flat_plane((1, 2, 3, 4), 8, name="t4-in-r8")
    rule = QuadratureRule(p.box, 2)
    worst_dev = 0.0
    worst_star = 0.0
    for v_sel, w_sel in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        out = cayley_anomaly(p, rule, v_sel, w_sel)
        worst_dev = max(worst_dev, out["trace_discrepancy_err"])
        worst_star = max(worst_star, out["star_restriction_max"])
    curved = graph_patch((1, 2, 3, 4), 8, [(5, 0.1, (1, 0, 1, 0), 0.9)], "graph-cayley")
    out = cayley_anomaly(curved, QuadratureRule(curved.box, 2))
    worst_dev = max(worst_dev, out["trace_discrepancy_err"])
    worst_star = max(worst_star, out["star_restriction_max"])

    # with the projection the kept and trace-free velocities agree
    from caliblab.variation import test_variation_derivative

    frame = orthonormal_frames(p.jacobians(np.array([[0.3, 0.4, 0.5, 0.6]])).swapaxes(1, 2))[0]
    d = test_variation_derivative("cayley", frame, 0, 1)
    gap = np.abs(h_sp7_batch(project_35_7_batch(d))
                 - h0_sp7_batch(d)).max()
    passed = worst_dev < 1e-8 and worst_star < 1e-10 and gap < 1e-12
    report(7, passed,
           f"Cayley anomaly: trace discrepancy matches (2/7)|V^W|^2 "
           f"(err {worst_dev:.2e}), star restriction {worst_star:.2e}, "
           f"projected gap {gap:.2e}")


def test_criterion_08_first_variation_fd():
    rng = np.random.default_rng(8)
    worst = 0.0
    p = flat_plane((1, 2), 6, name="t2-in-r6")
    rule = QuadratureRule(p.box, 6)
    bg = UmBackground.flat(3)
    for _ in range(20):
        fam = um_family_from_alpha(FormField.random_fourier(6, 1, rng), bg, 1)
        fv = analytic_first_variation(p, fam, rule)
        fd, _ = fd_first_variation(p, fam, rule)
        worst = max(worst, abs(fv - fd))
    p3 = flat_plane((1, 2, 3), 7, name="t3-in-r7")
    rule3 = QuadratureRule(p3.box, 4)
    for _ in range(20):
        fam = assoc_family_from_beta(FormField.random_fourier(7, 2, rng), G2)
        fv = analytic_first_variation(p3, fam, rule3)
        fd, _ = fd_first_variation(p3, fam, rule3)
        worst = max(worst, abs(fv - fd))

    scaling_gap = 0.0
    for patch, k in [(p, 2), (p3, 3), (flat_plane((4, 5, 6, 7), 7), 4),
                     (flat_plane((1, 2, 3, 4), 8), 4)]:
        rule_s = QuadratureRule(patch.box, 3)
        fam = scaling_family(patch.n)
        fv = analytic_first_variation(patch, fam, rule_s)
        fd, _ = fd_first_variation(patch, fam, rule_s)
        vol = volume(patch, None, rule_s)
        scaling_gap = max(scaling_gap, abs(fv - 0.5 * k * vol), abs(fd - 0.5 * k * vol))

    passed = worst < 1e-6 and scaling_gap < 1e-8
    report(8, passed,
           f"finite differences match the first-variation formula over 20 families "
           f"per route (max gap {worst:.2e}); scaling sanity {scaling_gap:.2e}")


def test_criterion_09_distance_jet():
    patches = [
        (flat_plane((1, 2), 4), np.array([0.3, 0.6])),
        (flat_plane((1, 2, 3), 7, name="t3-in-r7"), np.array([0.2, 0.5, 0.8])),
        (graph_patch((1, 2, 3), 7, [(4, 0.1, (1, 0, 1), 0.3)], "graph-assoc"),
         np.array([0.4, 0.3, 0.7])),
        (circle_patch(1.0), np.array([1.2])),
        (sphere_patch(1.0, full=False), np.array([1.1, 2.0])),
    ]
    worst_grad = 0.0
    worst_hess = 0.0
    for patch, x in patches:
        jet = jet_of_F(patch, x)
        assert jet.value == 0.0 and np.abs(jet.gradient).max() == 0.0
        (y0,), (j,) = patch.rows(x[None])
        assert np.abs(jet.hessian - normal_projector(orthonormal_frames(j.T)[0])).max() < 1e-12
        n = patch.n
        h = 1e-6
        grad = np.array([
            (jet.evaluate(y0 + h * np.eye(n)[i]) - jet.evaluate(y0 - h * np.eye(n)[i]))
            / (2 * h) for i in range(n)])
        worst_grad = max(worst_grad, float(np.abs(grad).max()))
        h2 = 3e-4
        hess = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                val = (jet.evaluate(y0 + h2 * (np.eye(n)[i] + np.eye(n)[j]))
                       - jet.evaluate(y0 + h2 * (np.eye(n)[i] - np.eye(n)[j]))
                       - jet.evaluate(y0 - h2 * (np.eye(n)[i] - np.eye(n)[j]))
                       + jet.evaluate(y0 - h2 * (np.eye(n)[i] + np.eye(n)[j]))) / (4 * h2 * h2)
                hess[i, j] = hess[j, i] = val
        worst_hess = max(worst_hess, float(np.abs(hess - jet.hessian).max()))
    passed = worst_grad < 1e-6 and worst_hess < 1e-6
    report(9, passed,
           f"distance-squared jet on 5 patches (numeric |grad F| {worst_grad:.2e}, "
           f"Hessian vs projector {worst_hess:.2e})")


def test_criterion_10_smith_suite():
    from caliblab.cli import random_triple, smith_catalog

    rng = np.random.default_rng(10)
    worst_gap = 0.0
    chain_ok = True
    for _ in range(1000):
        triple = random_triple(rng)
        rule = QuadratureRule(triple.patch.box, 6)
        e = k_energy(triple, rule)
        v = k_volume(triple, rule)
        c = calibration_integral(triple, rule)
        chain_ok = chain_ok and (e >= v - 1e-9) and (v >= c - 1e-9)
        worst_gap = max(worst_gap, v - e, c - v)

    name, holo, _ = smith_catalog()[0]
    rule = QuadratureRule(holo.patch.box, 8)
    scaled = MapTriple(
        holo.patch,
        lambda x: (1 + 0.5 * math.sin(2 * math.pi * x[0]) * math.cos(x[1])) ** 2 * np.eye(2),
        holo.kit)
    invariance = abs(k_energy(scaled, rule) - k_energy(holo, rule))

    crit = 0.0
    for _ in range(5):
        h = SymTensorField.random(2, rng)
        crit = max(crit, abs(energy_first_variation_domain(holo, h.value, rule)))

    target_gap = 0.0
    for _ in range(5):
        hbar = SymTensorField.random(4, rng)
        energy_route = energy_first_variation_target(holo, hbar.value, rule)
        volume_route = analytic_first_variation(holo.patch, ambient_family(hbar), rule)
        target_gap = max(target_gap, abs(energy_route - volume_route))

    passed = chain_ok and invariance < 1e-10 and crit < 1e-8 and target_gap < 1e-6
    report(10, passed,
           f"Smith suite: chain over 10^3 maps (worst gap {worst_gap:.2e}), "
           f"conformal invariance {invariance:.2e}, criticality {crit:.2e}, "
           f"target variation gap {target_gap:.2e}")


def test_criterion_11_minimal_comparison():
    rng = np.random.default_rng(11)
    worst_identity = 0.0
    for patch in (circle_patch(1.0), sphere_patch(1.0), torus_patch()):
        rule = QuadratureRule(patch.box, 8)
        for _ in range(2):
            x = VectorField.random(patch.n, rng)
            out = minimal_comparison(patch, x, rule)
            worst_identity = max(worst_identity, out["fd_vs_divergence"],
                                 out["analytic_vs_divergence"])
    flat = flat_plane((1, 2), 4, name="t2-in-r4")
    rule = QuadratureRule(flat.box, 8)
    worst_flat = 0.0
    from caliblab.variation import analytic_first_variation as afv
    from caliblab.variation import lie_family

    for _ in range(20):
        x = VectorField.random(4, rng, with_linear=False)
        worst_flat = max(worst_flat, abs(afv(flat, lie_family(x), rule)))
    passed = worst_identity < 1e-6 and worst_flat < 1e-8
    report(11, passed,
           f"minimal-submanifold comparison (identity gap {worst_identity:.2e}, "
           f"flat-patch variation {worst_flat:.2e})")
