import math

import numpy as np
import pytest

from caliblab.exterior import KForm, evaluate, hodge_star
from caliblab.fields import FormField, FourierMode, UmBackground, VectorField
from caliblab.structures import calibration_report, standard_kit
from caliblab.submanifold import (
    QuadratureRule,
    circle_patch,
    fd_derivative,
    flat_plane,
    graph_patch,
    sphere_patch,
    torus_patch,
)
from caliblab.variation import (
    VariationFamily,
    analytic_first_variation,
    assoc_family_from_beta,
    cayley_anomaly,
    cayley_family_from_gamma,
    chain_consistency,
    chain_trace,
    closed_form_trace,
    coassoc_family_from_gamma,
    fd_first_variation,
    lie_family,
    minimal_comparison,
    plane_catalog,
    scaling_family,
    test_variation_derivative,
    theorem_A_experiment,
    theorem_B_defect,
    um_family_from_alpha,
)

G2 = standard_kit("associative")
COASSOC = standard_kit("coassociative")
SP7 = standard_kit("cayley")

CURVED = {
    "um": graph_patch((1, 2), 6, [(3, 0.15, (1, 1), 0.4), (5, 0.1, (2, -1), 1.2)],
                      "graph-um"),
    "associative": graph_patch((1, 2, 3), 7,
                               [(4, 0.12, (1, 0, 1), 0.3), (6, 0.08, (0, 1, -1), 2.0)],
                               "graph-assoc"),
    "coassociative": graph_patch((4, 5, 6, 7), 7,
                                 [(1, 0.1, (1, 1, 0, 0), 0.3), (2, 0.07, (0, 1, 0, -1), 1.1)],
                                 "graph-coassoc"),
    "cayley": graph_patch((1, 2, 3, 4), 8,
                          [(5, 0.1, (1, 0, 1, 0), 0.9), (8, 0.06, (0, 1, -1, 0), 0.2)],
                          "graph-cayley"),
}


class TestFamilies:
    def test_um_zero_generator(self):
        fam = um_family_from_alpha(FormField(6, 1), UmBackground.flat(3), 1)
        p = flat_plane((1, 2), 6)
        assert np.abs(fam.h(p, np.array([[0.3, 0.3]]))[0]).max() == 0.0

    def test_um_h_J_invariant(self):
        rng = np.random.default_rng(0)
        bg = UmBackground.flat(3)
        fam = um_family_from_alpha(FormField.random_fourier(6, 1, rng), bg, 1)
        p = flat_plane((1, 2), 6)
        h = fam.h(p, np.array([[0.4, 0.9]]))[0]
        assert np.abs(bg.J.T @ h @ bg.J - h).max() < 1e-12

    def test_um_gbar_fd_matches_h(self):
        rng = np.random.default_rng(1)
        bg = UmBackground.flat(3)
        p = flat_plane((1, 2), 6)
        x = np.array([0.7, 0.2])
        for _ in range(5):
            fam = um_family_from_alpha(FormField.random_fourier(6, 1, rng), bg, 1)
            # the family starts at the background metric
            assert np.abs(fam.gbar_at(p, x, 0.0)
                          - bg.metric(p.position(x))).max() < 1e-14
            fd, _ = fd_derivative(lambda t: fam.gbar_at(p, x, t), 0.0, 1e-4)
            assert np.abs(fd - fam.h(p, x[None])[0]).max() < 1e-8

    def test_assoc_gbar_fd_matches_h(self):
        rng = np.random.default_rng(2)
        p = flat_plane((1, 2, 3), 7)
        x = np.array([0.3, 0.6, 0.2])
        for _ in range(5):
            fam = assoc_family_from_beta(FormField.random_fourier(7, 2, rng), G2)
            fd, _ = fd_derivative(lambda t: fam.gbar_at(p, x, t), 0.0, 1e-4)
            assert np.abs(fd - fam.h(p, x[None])[0]).max() < 1e-7

    def test_assoc_constant_phi_direction(self):
        # velocity d(beta) = phi is the scaling direction: h = (2/3) Id, the
        # same value the decomposition lemma produces
        from caliblab.decomposition import h_from_3form_batch

        h = h_from_3form_batch(G2.phi.coeffs)[0]
        assert np.allclose(h, (2.0 / 3.0) * np.eye(7), atol=1e-13)

    def test_coassoc_constant_psi_direction(self):
        from caliblab.decomposition import h_from_4form_batch

        h = h_from_4form_batch(COASSOC.psi.coeffs)[0]
        assert np.allclose(h, 0.5 * np.eye(7), atol=1e-13)

    def test_zero_generators_give_zero_velocity(self):
        p3 = flat_plane((1, 2, 3), 7)
        p47 = flat_plane((4, 5, 6, 7), 7)
        p8 = flat_plane((1, 2, 3, 4), 8)
        x3, x4 = np.full(3, 0.3), np.full(4, 0.3)
        assert np.abs(assoc_family_from_beta(FormField(7, 2), G2)
                      .h(p3, x3[None])[0]).max() == 0.0
        assert np.abs(coassoc_family_from_gamma(FormField(7, 3), COASSOC)
                      .h(p47, x4[None])[0]).max() == 0.0
        assert np.abs(cayley_family_from_gamma(FormField(8, 3), SP7)
                      .h(p8, x4[None])[0]).max() == 0.0

    def test_coassoc_trace_relation_propagates(self):
        rng = np.random.default_rng(3)
        from caliblab.decomposition import hat_rho_batch

        p = flat_plane((4, 5, 6, 7), 7)
        x = np.array([0.2, 0.4, 0.6, 0.8])
        for _ in range(5):
            gen = FormField.random_fourier(7, 3, rng)
            fam = coassoc_family_from_gamma(gen, COASSOC)
            h = fam.h(p, x[None])[0]
            rho = gen.d_coeffs(p.position(x))
            hat = hat_rho_batch(rho)[0]
            assert 2 * np.trace(hat) == pytest.approx(96 * np.trace(h), abs=1e-9)

    def test_cayley_h_equals_h0_of_projection(self):
        rng = np.random.default_rng(4)
        from caliblab.decomposition import h_sp7_batch

        p = flat_plane((1, 2, 3, 4), 8)
        x = np.array([0.3, 0.1, 0.8, 0.5])
        gen = FormField.random_fourier(8, 3, rng)
        fam = cayley_family_from_gamma(gen, SP7)
        sigma = fam.mu_dot(p, x[None])[0]
        assert np.abs(h_sp7_batch(sigma)[0] - fam.h(p, x[None])[0]).max() < 1e-10

    def test_scaling_family(self):
        p = flat_plane((1, 2, 3), 7)
        rule = QuadratureRule(p.box, 3)
        fam = scaling_family(7)
        assert analytic_first_variation(p, fam, rule) == pytest.approx(1.5, abs=1e-12)
        fd, _ = fd_first_variation(p, fam, rule)
        assert fd == pytest.approx(1.5, abs=1e-8)


class TestTestVariations:
    def test_um_complex_plane_trace_vanishes(self):
        p = flat_plane((1, 2), 6)
        x = np.array([0.5, 0.5])
        d = test_variation_derivative("um", p, x)
        kit = standard_kit("um", m=3, k=1)
        frame = np.eye(6)[:2]
        for f in frame:
            assert d.to_tensor()[0] is not None
            assert evaluate(d, [f, kit.J @ f]) == pytest.approx(0.0, abs=1e-14)

    def test_assoc_plane_trace_expressions_vanish(self):
        # on an associative plane both trace expressions are zero
        p = flat_plane((1, 2, 3), 7)
        x = np.array([0.5, 0.5, 0.5])
        assert abs(chain_trace("associative", p, x, 0)) < 1e-14
        assert abs(closed_form_trace("associative", p, x, 0)) < 1e-14

    def test_cayley_star_restriction_vanishes(self):
        for patch in (flat_plane((1, 2, 3, 4), 8), CURVED["cayley"]):
            x = patch.box.lo + 0.37 * (patch.box.hi - patch.box.lo)
            d = test_variation_derivative("cayley", patch, x, 0, 1)
            star = hodge_star(d)
            from caliblab.variation import _tangent_frame

            frame = _tangent_frame(patch, x)
            assert abs(evaluate(star, frame)) < 1e-10

    def test_non_tangent_selector_rejected(self):
        p = flat_plane((1, 2, 3), 7)
        with pytest.raises(ValueError):
            test_variation_derivative("associative", p, [0.5, 0.5, 0.5],
                                      V=np.array([0, 0, 0, 1.0, 0, 0, 0]))


class TestChainConsistency:
    @pytest.mark.parametrize("case", ["um", "associative", "coassociative", "cayley"])
    def test_flat_planes(self, case):
        good, bad = plane_catalog(case)
        for patch in good + bad:
            rule = QuadratureRule(patch.box, 2)
            assert chain_consistency(case, patch, rule,
                                     nodes=rule.nodes[:1]) < 1e-12

    @pytest.mark.parametrize("case", ["um", "associative", "coassociative", "cayley"])
    def test_curved_patches(self, case):
        patch = CURVED[case]
        rule = QuadratureRule(patch.box, 2)
        nodes = rule.nodes[: 4]
        assert chain_consistency(case, patch, rule, nodes=nodes) < 1e-10

    def test_defect_is_twice_first_variation(self):
        # the central identity of the converse proofs: the first variation of
        # the test-variation family accounts for the defect integral, with the
        # case's sign, on random graphical patches
        sign = {"um": 1.0, "associative": -1.0, "coassociative": 1.0, "cayley": 1.0}
        from caliblab.variation import _canonical_selections, test_variation_family

        for case, patch in CURVED.items():
            rule = QuadratureRule(patch.box, 3)
            fv = 0.0
            for sel in _canonical_selections(case, patch.k):
                args = dict(zip(("V", "W"), sel))
                fam = test_variation_family(case, patch, **args)
                fv += analytic_first_variation(patch, fam, rule)
            defect = theorem_B_defect(case, patch, rule)
            assert defect == pytest.approx(sign[case] * 2.0 * fv, rel=1e-6)
            assert defect > 1e-3  # the graphical patches are not calibrated


class TestTheoremB:
    @pytest.mark.parametrize("case", ["um", "associative", "coassociative", "cayley"])
    def test_plane_catalog_closure(self, case):
        good, bad = plane_catalog(case)
        assert len(good) >= 6 and len(bad) >= 6
        rule_cache = {}
        for patch in good:
            rule = rule_cache.setdefault(patch.k, QuadratureRule(patch.box, 2))
            assert theorem_B_defect(case, patch, rule) < 1e-10
        for patch in bad:
            rule = rule_cache.setdefault(patch.k, QuadratureRule(patch.box, 2))
            assert theorem_B_defect(case, patch, rule) > 1e-3

    def test_defect_matches_calibration_report(self):
        kit_of = {"um": standard_kit("um", m=3, k=1), "associative": G2,
                  "coassociative": COASSOC, "cayley": SP7}
        for case in ("associative", "coassociative", "cayley"):
            good, bad = plane_catalog(case)
            for patch in good:
                rows = np.eye(patch.n)[list(patch.axes)]
                assert calibration_report(kit_of[case], rows).is_calibrated
            for patch in bad:
                rows = np.eye(patch.n)[list(patch.axes)]
                assert not calibration_report(kit_of[case], rows).is_calibrated


class TestTheoremA:
    def run_case(self, case, patch, fam, order=6):
        rule = QuadratureRule(patch.box, order)
        return theorem_A_experiment(case, patch, fam, rule)

    def test_associative(self):
        rng = np.random.default_rng(5)
        p = flat_plane((1, 2, 3), 7, name="t3-in-r7")
        for _ in range(3):
            fam = assoc_family_from_beta(FormField.random_fourier(7, 2, rng), G2)
            v = self.run_case("associative", p, fam, order=8)
            assert v.calibrated and v.all_pass
            assert abs(v.analytic_first_variation) < 1e-8
            assert v.identity_max_err < 1e-12

    def test_coassociative(self):
        rng = np.random.default_rng(6)
        p = flat_plane((4, 5, 6, 7), 7, name="t4-in-r7")
        for _ in range(3):
            fam = coassoc_family_from_gamma(FormField.random_fourier(7, 3, rng), COASSOC)
            v = self.run_case("coassociative", p, fam, order=8)
            assert v.all_pass and abs(v.analytic_first_variation) < 1e-8

    def test_cayley(self):
        rng = np.random.default_rng(7)
        p = flat_plane((1, 2, 3, 4), 8, name="t4-in-r8")
        for _ in range(3):
            gen = FormField.random_fourier(8, 3, rng, frequency_axes=(1, 2, 3, 4))
            fam = cayley_family_from_gamma(gen, SP7)
            v = self.run_case("cayley", p, fam, order=8)
            assert v.all_pass
            assert abs(v.cayley_condition) < 1e-10
            assert v.cayley_raw_identity_err < 1e-10

    def test_cayley_condition_violation_detected(self):
        # a purely normal-frequency mode puts the family outside the allowed
        # class: the condition integral is nonzero and criticality fails by
        # exactly -condition/2
        gen = FormField(8, 3, modes=[
            FourierMode(np.ones(56), np.array([0, 0, 0, 0, 1.0, 0, 0, 0]), 0.3)])
        fam = cayley_family_from_gamma(gen, SP7)
        p = flat_plane((1, 2, 3, 4), 8)
        v = self.run_case("cayley", p, fam, order=6)
        assert abs(v.cayley_condition) > 1e-3
        assert v.analytic_first_variation == pytest.approx(
            -0.5 * v.cayley_condition, abs=1e-9)

    def test_um_k1_constant_even_with_torsion(self):
        rng = np.random.default_rng(8)
        bg = UmBackground.wavy(3, rng, eps=0.05, frequency_axes=(1, 2))
        p = flat_plane((1, 2), 6, name="t2-in-r6")
        for _ in range(3):
            fam = um_family_from_alpha(FormField.random_fourier(6, 1, rng), bg, 1)
            v = self.run_case("um", p, fam, order=8)
            assert v.calibrated and v.all_pass
            assert abs(v.analytic_first_variation) < 1e-8

    def test_um_k2_closed_omega(self):
        rng = np.random.default_rng(9)
        bg = UmBackground.flat(3)
        p = flat_plane((1, 2, 3, 4), 6, name="t4-in-r6")
        for _ in range(3):
            fam = um_family_from_alpha(FormField.random_fourier(6, 1, rng), bg, 2)
            v = self.run_case("um", p, fam, order=8)
            assert v.all_pass and abs(v.analytic_first_variation) < 1e-8

    def test_um_k2_domega_route(self):
        # with torsion, the first variation equals the d(omega) pairing integral;
        # a resonant mode makes the value visibly nonzero
        rng = np.random.default_rng(10)
        p = flat_plane((1, 2, 3, 4), 6, name="t4-in-r6")
        rule = QuadratureRule(p.box, 8)
        found_nonzero = False
        for trial in range(4):
            freq = np.zeros(6)
            freq[rng.integers(0, 4)] = 1.0
            bg = UmBackground(3, waves=[[(0.01, freq, 0.7)], [], []])
            gen = FormField(6, 1, modes=[
                FourierMode(rng.standard_normal(6), freq.copy(),
                            float(rng.uniform(0, 2 * math.pi)))])
            fam = um_family_from_alpha(gen, bg, 2)
            v = theorem_A_experiment("um", p, fam, rule)
            assert v.identity_max_err < 1e-12
            assert abs(v.analytic_first_variation - v.um_dw_route) < 1e-6
            found_nonzero = found_nonzero or abs(v.um_dw_route) > 1e-3
        assert found_nonzero

    def test_fd_cross_checks(self):
        rng = np.random.default_rng(11)
        p = flat_plane((1, 2), 6, name="t2-in-r6")
        rule = QuadratureRule(p.box, 6)
        fam = um_family_from_alpha(FormField.random_fourier(6, 1, rng),
                                   UmBackground.flat(3), 1)
        fv = analytic_first_variation(p, fam, rule)
        fd, _ = fd_first_variation(p, fam, rule)
        assert fd == pytest.approx(fv, abs=1e-8)

        p3 = flat_plane((1, 2, 3), 7)
        rule3 = QuadratureRule(p3.box, 4)
        fam3 = assoc_family_from_beta(FormField.random_fourier(7, 2, rng), G2)
        fv3 = analytic_first_variation(p3, fam3, rule3)
        fd3, _ = fd_first_variation(p3, fam3, rule3)
        assert fd3 == pytest.approx(fv3, abs=1e-7)

    def test_negatively_oriented_calibrated_planes(self):
        # phi(e1, e6, e7) = -1 and Phi(e1, e2, e7, e8) = -1: calibrated after an
        # orientation flip; the experiments must handle the sign in both paths
        rng = np.random.default_rng(18)
        p = flat_plane((1, 6, 7), 7, name="plane-167-r7")
        fam = assoc_family_from_beta(FormField.random_fourier(7, 2, rng), G2)
        rule = QuadratureRule(p.box, 6)
        v = theorem_A_experiment("associative", p, fam, rule)
        assert v.calibrated and v.plane_value == -1.0
        assert v.all_pass, v.passes

        p8 = flat_plane((1, 2, 7, 8), 8, name="plane-1278-r8")
        gen = FormField.random_fourier(8, 3, rng, frequency_axes=(1, 2, 7, 8))
        fam8 = cayley_family_from_gamma(gen, SP7)
        rule8 = QuadratureRule(p8.box, 6)
        v8 = theorem_A_experiment("cayley", p8, fam8, rule8)
        assert v8.calibrated and v8.plane_value == -1.0
        assert v8.all_pass, v8.passes
        assert v8.cayley_raw_identity_err < 1e-10

        # same plane through the generic (non-axis-aligned) path
        from caliblab.submanifold import rotated_plane

        p8s = rotated_plane(np.eye(8)[[0, 1, 6, 7]], 8, "slow-1278")
        v8s = theorem_A_experiment("cayley", p8s, fam8, QuadratureRule(p8s.box, 4))
        assert v8s.calibrated and v8s.plane_value == -1.0
        assert v8s.all_pass, v8s.passes
        assert v8s.cayley_raw_identity_err < 1e-10

    def test_non_calibrated_patch_demoted(self):
        rng = np.random.default_rng(12)
        p = flat_plane((1, 2, 4), 7)  # not associative
        fam = assoc_family_from_beta(FormField.random_fourier(7, 2, rng), G2)
        v = self.run_case("associative", p, fam, order=3)
        assert not v.calibrated
        assert "first_variation_zero" not in v.passes

    def test_orientation_robustness(self):
        rng = np.random.default_rng(13)
        patch = CURVED["associative"]
        fam = assoc_family_from_beta(FormField.random_fourier(7, 2, rng), G2)
        rule = QuadratureRule(patch.box, 3)
        a = theorem_A_experiment("associative", patch, fam, rule)
        b = theorem_A_experiment("associative", patch.reversed(), fam, rule)
        assert b.analytic_first_variation == pytest.approx(
            a.analytic_first_variation, abs=1e-10)
        assert b.defect_integral == pytest.approx(a.defect_integral, abs=1e-10)
        assert b.identity_max_err == pytest.approx(a.identity_max_err, abs=1e-10)

    def test_flat_and_generic_paths_agree(self):
        # an axis plane broadcasts its one constant Jacobian over the nodes; its
        # rotated_plane twin supplies one Jacobian per node.  Both must produce
        # the same verdict; the U(m) pair spans several node blocks.
        from caliblab.submanifold import rotated_plane
        from caliblab.variation import NODE_BLOCK

        rng = np.random.default_rng(19)
        pairs = [
            ("associative", flat_plane((1, 2, 3), 7),
             rotated_plane(np.eye(7)[:3], 7, "slow-123"),
             assoc_family_from_beta(FormField.random_fourier(7, 2, rng), G2), 4),
            ("cayley", flat_plane((1, 2, 3, 4), 8),
             rotated_plane(np.eye(8)[:4], 8, "slow-1234"),
             cayley_family_from_gamma(
                 FormField.random_fourier(8, 3, rng, frequency_axes=(1, 2, 3, 4)), SP7), 4),
            ("um", flat_plane((1, 2, 3, 4), 6),
             rotated_plane(np.eye(6)[:4], 6, "slow-1234-r6"),
             um_family_from_alpha(FormField.random_fourier(6, 1, rng),
                                  UmBackground.flat(3), 2), 6),
            ("coassociative", flat_plane((4, 5, 6, 7), 7),
             rotated_plane(np.eye(7)[3:], 7, "slow-4567"),
             coassoc_family_from_gamma(FormField.random_fourier(7, 3, rng), COASSOC), 4),
        ]
        assert max(order ** p.k for _, p, _, _, order in pairs) > 2 * NODE_BLOCK
        for case, fast_patch, slow_patch, fam, order in pairs:
            rule = QuadratureRule(fast_patch.box, order)
            a = theorem_A_experiment(case, fast_patch, fam, rule)
            b = theorem_A_experiment(case, slow_patch, fam, rule)
            assert a.calibrated and b.calibrated
            assert a.analytic_first_variation == pytest.approx(
                b.analytic_first_variation, abs=1e-12)
            assert a.stokes_value == pytest.approx(b.stokes_value, abs=1e-12)
            assert a.identity_max_err == pytest.approx(b.identity_max_err, abs=1e-11)
            if case == "cayley":
                assert a.cayley_condition == pytest.approx(b.cayley_condition, abs=1e-12)
                assert a.cayley_raw_identity_err == pytest.approx(
                    b.cayley_raw_identity_err, abs=1e-11)

    def test_verdict_scalars_roundtrip(self):
        rng = np.random.default_rng(14)
        p = flat_plane((1, 2, 3), 7)
        fam = assoc_family_from_beta(FormField.random_fourier(7, 2, rng), G2)
        v = self.run_case("associative", p, fam, order=2)
        scalars = v.scalars()
        assert set(scalars) >= {"analytic_first_variation", "defect_integral",
                                "identity_max_err", "stokes_value"}


class TestCayleyAnomaly:
    def test_flat_plane_all_pairs(self):
        p = flat_plane((1, 2, 3, 4), 8)
        rule = QuadratureRule(p.box, 2)
        for v_sel, w_sel in [(0, 1), (0, 2), (1, 3), (2, 3)]:
            out = cayley_anomaly(p, rule, v_sel, w_sel)
            assert out["trace_discrepancy_err"] < 1e-12
            assert out["star_restriction_max"] < 1e-12

    def test_curved_patch(self):
        patch = CURVED["cayley"]
        rule = QuadratureRule(patch.box, 2)
        out = cayley_anomaly(patch, rule)
        assert out["trace_discrepancy_err"] < 1e-10
        assert out["star_restriction_max"] < 1e-10

    def test_projection_removes_discrepancy(self):
        # with the pure-trace part projected away the kept and projected
        # traces agree, so criticality is restored on Cayley planes
        from caliblab.decomposition import h0_sp7_batch, h_sp7_batch, project_35_7_batch

        p = flat_plane((1, 2, 3, 4), 8)
        x = np.array([0.3, 0.5, 0.7, 0.1])
        d = test_variation_derivative("cayley", p, x, 0, 1)
        proj = project_35_7_batch(d.coeffs)[0]
        h_proj = h_sp7_batch(proj)[0]
        h_zero = h0_sp7_batch(d.coeffs)[0]
        assert np.abs(h_proj - h_zero).max() < 1e-12


class TestMinimalComparison:
    def test_flat_torus_zero(self):
        p = flat_plane((1, 2), 4, name="t2-in-r4")
        rule = QuadratureRule(p.box, 8)
        rng = np.random.default_rng(15)
        for _ in range(5):
            x = VectorField.random(4, rng, with_linear=False)
            out = minimal_comparison(p, x, rule)
            assert abs(out["analytic_first_variation"]) < 1e-8
            assert out["analytic_vs_divergence"] < 1e-8

    def test_sphere_identity_and_nonzero(self):
        p = sphere_patch(1.0)
        rule = QuadratureRule(p.box, 8)
        rng = np.random.default_rng(16)
        seen_nonzero = False
        for _ in range(3):
            x = VectorField.random(3, rng)
            out = minimal_comparison(p, x, rule)
            assert out["fd_vs_divergence"] < 1e-6
            assert out["analytic_vs_divergence"] < 1e-6
            seen_nonzero = seen_nonzero or abs(out["analytic_first_variation"]) > 1e-3
        assert seen_nonzero

    def test_torus_and_circle_identity(self):
        rng = np.random.default_rng(17)
        for patch in (torus_patch(), circle_patch(1.0)):
            rule = QuadratureRule(patch.box, 8)
            x = VectorField.random(patch.n, rng)
            out = minimal_comparison(patch, x, rule)
            assert out["fd_vs_divergence"] < 1e-6

    def test_normal_field_on_sphere_matches_mean_curvature(self):
        # purely radial field: first variation = -integral <X, H> = 2 * area
        p = sphere_patch(1.0)
        rule = QuadratureRule(p.box, 10)
        x = VectorField(3, linear=np.eye(3))  # X(y) = y, normal along the sphere
        fam = lie_family(x)
        fv = analytic_first_variation(p, fam, rule)
        assert fv == pytest.approx(2 * 4 * math.pi, rel=1e-9)
