import math

import numpy as np
import pytest

from caliblab.decomposition import (
    DegenerateInputError,
    DimensionError,
    four_form_from_a_27,
    four_form_from_h_x,
    g2_split_3form,
    g2_split_4form,
    h0_sp7_batch,
    h_from_3form_batch,
    h_from_4form_batch,
    h_sp7_batch,
    hat_eta_batch,
    hat_rho_batch,
    hat_sigma_batch,
    metric_from_3form,
    project_35_7,
    project_35_7_batch,
    sp7_split_4form,
    three_form_from_h_x,
)
from caliblab.exterior import KForm, form_inner, hodge_star, interior, wedge
from caliblab.structures import standard_kit
from caliblab.submanifold import fd_derivative

G2 = standard_kit("associative")
COASSOC = standard_kit("coassociative")
SP7 = standard_kit("cayley")


def random_forms(rng, n, k, count):
    return rng.standard_normal((count, math.comb(n, k)))


class TestG2ThreeFormSplit:
    def test_phi_anchor(self):
        # eta = phi has hat(eta) = 6 Id and Tr = 42, so h = 3 Id - (42/18) Id
        split = g2_split_3form(G2.form)
        assert np.allclose(split.h, (2.0 / 3.0) * np.eye(7), atol=1e-13)
        assert np.abs(split.eta_7.coeffs).max() < 1e-13
        assert np.abs(split.X).max() < 1e-13

    def test_zero(self):
        split = g2_split_3form(KForm.zero(7, 3))
        assert np.abs(split.h).max() == 0.0
        assert np.abs(split.X).max() == 0.0

    def test_trace_relation(self):
        rng = np.random.default_rng(0)
        coeffs = random_forms(rng, 7, 3, 200)
        hats = hat_eta_batch(coeffs)
        hs = h_from_3form_batch(coeffs)
        lhs = 2 * np.trace(hats, axis1=1, axis2=2)
        rhs = 18 * np.trace(hs, axis1=1, axis2=2)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_round_trip_and_orthogonality(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            eta = KForm(7, 3, rng.standard_normal(35))
            split = g2_split_3form(eta)
            rebuilt = split.eta_1_27 + split.eta_7
            assert np.abs(rebuilt.coeffs - eta.coeffs).max() < 1e-12
            assert abs(form_inner(split.eta_1_27, split.eta_7)) < 1e-10
            # the 7-part is (1/2) X _| psi
            again = 0.5 * interior(split.X, COASSOC.form)
            assert np.abs(again.coeffs - split.eta_7.coeffs).max() < 1e-11
            # re-splitting is stable
            again_split = g2_split_3form(rebuilt)
            assert np.abs(again_split.h - split.h).max() < 1e-12
            assert np.abs(again_split.X - split.X).max() < 1e-12

    def test_forward_formula_exact_on_integers(self):
        rng = np.random.default_rng(2)
        h = rng.integers(-3, 4, (7, 7)).astype(float)
        h = h + h.T
        x = rng.integers(-3, 4, 7).astype(float)
        eta = three_form_from_h_x(h, x)
        split = g2_split_3form(eta)
        assert np.array_equal(split.h, h)
        assert np.array_equal(split.X, x)


class TestG2FourFormSplit:
    def test_psi_anchor(self):
        split = g2_split_4form(COASSOC.form)
        assert np.allclose(split.h, 0.5 * np.eye(7), atol=1e-13)
        assert np.abs(split.rho_7.coeffs).max() < 1e-13

    def test_trace_relation(self):
        rng = np.random.default_rng(3)
        coeffs = random_forms(rng, 7, 4, 200)
        lhs = 2 * np.trace(hat_rho_batch(coeffs), axis1=1, axis2=2)
        rhs = 96 * np.trace(h_from_4form_batch(coeffs), axis1=1, axis2=2)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            rho = KForm(7, 4, rng.standard_normal(35))
            split = g2_split_4form(rho)
            rebuilt = split.rho_1_27 + split.rho_7
            assert np.abs(rebuilt.coeffs - rho.coeffs).max() < 1e-12
            assert abs(form_inner(split.rho_1_27, split.rho_7)) < 1e-10
            # the 7-part is (1/2) X ^ phi
            again = 0.5 * wedge(KForm.covector(split.X), G2.form)
            assert np.abs(again.coeffs - split.rho_7.coeffs).max() < 1e-11

    def test_forward_formula_exact_on_integers(self):
        rng = np.random.default_rng(5)
        h = rng.integers(-3, 4, (7, 7)).astype(float)
        h = h + h.T
        x = rng.integers(-3, 4, 7).astype(float)
        rho = four_form_from_h_x(h, x)
        split = g2_split_4form(rho)
        assert np.array_equal(split.h, h)
        assert np.array_equal(split.X, x)


class TestSpin7Split:
    def test_phi_anchor(self):
        split = sp7_split_4form(SP7.form)
        assert np.allclose(split.h, 0.5 * np.eye(8), atol=1e-13)
        assert np.abs(split.h0).max() < 1e-13
        assert np.abs(split.sigma_7.coeffs).max() < 1e-12
        assert np.abs(split.sigma_27.coeffs).max() < 1e-12

    def test_trace_relation_and_tracefree(self):
        rng = np.random.default_rng(6)
        coeffs = random_forms(rng, 8, 4, 200)
        lhs = 2 * np.trace(hat_sigma_batch(coeffs), axis1=1, axis2=2)
        rhs = 168 * np.trace(h_sp7_batch(coeffs), axis1=1, axis2=2)
        assert np.abs(lhs - rhs).max() < 1e-10
        assert np.abs(np.trace(h0_sp7_batch(coeffs), axis1=1, axis2=2)).max() < 1e-12

    def test_round_trip_and_27_condition(self):
        rng = np.random.default_rng(7)
        Phi_t = SP7.tensor
        for _ in range(15):
            sigma = KForm(8, 4, rng.standard_normal(70))
            split = sp7_split_4form(sigma)
            rebuilt = split.sigma_1_35 + split.sigma_7 + split.sigma_27
            assert np.abs(rebuilt.coeffs - sigma.coeffs).max() < 1e-12
            # sigma_27 satisfies the contraction characterization
            vio = np.einsum("ijkl,mjkl->im", split.sigma_27.to_tensor(), Phi_t)
            assert np.abs(vio).max() < 1e-9
            # beta is skew and the three pieces are mutually orthogonal
            assert np.abs(split.beta + split.beta.T).max() < 1e-12
            assert abs(form_inner(split.sigma_1_35, split.sigma_7)) < 1e-9
            assert abs(form_inner(split.sigma_7, split.sigma_27)) < 1e-9

    def test_forward_formula_exact(self):
        rng = np.random.default_rng(8)
        h = rng.integers(-3, 4, (8, 8)).astype(float)
        h = h + h.T
        beta_raw = rng.integers(-3, 4, (8, 8)).astype(float)
        beta = beta_raw - beta_raw.T
        # a generic skew part contributes only through its 7-type component
        sigma0 = four_form_from_a_27(h + beta, KForm.zero(8, 4))
        split = sp7_split_4form(sigma0)
        again = four_form_from_a_27(split.h + split.beta, split.sigma_27)
        assert np.abs(again.coeffs - sigma0.coeffs).max() < 1e-10

    def test_anti_self_dual_input(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sigma = KForm(8, 4, rng.standard_normal(70))
            anti = 0.5 * (sigma - hodge_star(sigma))
            split = sp7_split_4form(anti)
            assert abs(np.trace(split.h)) < 1e-10
            assert np.abs(split.sigma_7.coeffs).max() < 1e-10
            assert np.abs(split.sigma_27.coeffs).max() < 1e-10

    def test_self_dual_cross_checks(self):
        from caliblab.decomposition import _sp7_maps

        rng = np.random.default_rng(10)
        asm = _sp7_maps()[1]
        sigma = KForm(8, 4, rng.standard_normal(70))
        split = sp7_split_4form(sigma)
        s35 = KForm(8, 4, asm @ split.h0.reshape(64))
        assert np.abs(hodge_star(s35).coeffs + s35.coeffs).max() < 1e-10
        sd = (split.sigma_1_35 - s35) + split.sigma_7 + split.sigma_27
        assert np.abs(hodge_star(sd).coeffs - sd.coeffs).max() < 1e-10

    def test_h_annihilates_type_7(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            sigma = KForm(8, 4, rng.standard_normal(70))
            part7 = sp7_split_4form(sigma).sigma_7
            assert np.abs(h_sp7_batch(part7.coeffs)[0]).max() < 1e-10


def basis_tensors(n, k):
    """(C(n, k), n, ..., n) stack of the full tensors of the coefficient basis."""
    eye = np.eye(math.comb(n, k))
    return np.stack([KForm(n, k, row).to_tensor() for row in eye])


class TestContractionTables:
    """The scattered tables against contractions of the stacked basis tensors."""

    def test_g2_tables_bit_identical(self):
        from caliblab.decomposition import _g2_maps

        phi_t, psi_t = G2.tensor, COASSOC.tensor
        b3, b4 = basis_tensors(7, 3), basis_tensors(7, 4)
        hat3, hat4, _, _, x3, x4 = _g2_maps()
        assert np.array_equal(hat3, np.einsum("cpij,qij->cpq", b3, phi_t).reshape(35, 49).T)
        assert np.array_equal(hat4, np.einsum("cpijk,qijk->cpq", b4, psi_t).reshape(35, 49).T)
        assert np.array_equal(x3, np.einsum("cijk,qijk->cq", b3, psi_t).T / 12.0)
        assert np.array_equal(x4, np.einsum("cijkl,jkl->ci", b4, phi_t).T / 12.0)

    def test_spin7_table_bit_identical(self):
        from caliblab.decomposition import _sp7_maps

        Phi_t = SP7.tensor
        want = np.einsum("cpijk,qijk->cpq", basis_tensors(8, 4), Phi_t).reshape(70, 64).T
        assert np.array_equal(_sp7_maps()[0], want)

    def test_assembly_maps_match_wedge_interior(self):
        # column (i, j) of each assembly map is (1/2) e_i ^ (e_j _| form), built
        # basis pair by basis pair; the maps come from the hat maps, exactly
        from caliblab.decomposition import _g2_maps, _sp7_maps

        _, _, asm3, asm4, _, _ = _g2_maps()
        for asm, form in ((asm3, G2.form), (asm4, COASSOC.form), (_sp7_maps()[1], SP7.form)):
            eye = np.eye(form.n)
            want = np.stack([(0.5 * wedge(KForm.covector(eye[i]), interior(eye[j], form))).coeffs
                             for i in range(form.n) for j in range(form.n)], axis=1)
            assert np.array_equal(asm, want)

    def test_spin7_index_tables_match_loops(self):
        # star column by column through hodge_star, and the pair tables entry by
        # entry over the lexicographic pairs, as the builders once did
        from caliblab.decomposition import _sp7_maps

        _, asm, star, q7, beta_from, _ = _sp7_maps()
        Phi_t = SP7.tensor
        eye70 = np.eye(70)
        want_star = np.zeros((70, 70))
        for c in range(70):
            want_star[:, c] = hodge_star(KForm(8, 4, eye70[c])).coeffs
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        t2 = np.zeros((28, 28))
        skew_to_full = np.zeros((64, 28))
        for a, (k, l) in enumerate(pairs):
            skew_to_full[8 * k + l, a] = 1.0
            skew_to_full[8 * l + k, a] = -1.0
            for b, (r, s) in enumerate(pairs):
                t2[a, b] = Phi_t[r, s, k, l]
        evals, evecs = np.linalg.eigh(t2)
        rounded = np.rint(evals).astype(int)
        seven = [v for v in set(rounded) if np.sum(rounded == v) == 7]
        want_q7, _ = np.linalg.qr(asm @ skew_to_full @ evecs[:, rounded == seven[0]])
        assert np.array_equal(star, want_star)
        assert np.array_equal(q7, want_q7)
        assert np.array_equal(beta_from, np.linalg.pinv(asm @ skew_to_full))

        sigma = KForm(8, 4, np.random.default_rng(13).standard_normal(70))
        split = sp7_split_4form(sigma)
        pair_coeffs = beta_from @ split.sigma_7.coeffs
        want_beta = np.zeros((8, 8))
        for a, (i, j) in enumerate(pairs):
            want_beta[i, j] = pair_coeffs[a]
            want_beta[j, i] = -pair_coeffs[a]
        assert np.array_equal(split.beta, want_beta)


class TestProjection:
    def test_kills_phi(self):
        out = project_35_7(SP7.form)
        assert np.abs(out.coeffs).max() < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        sigma = rng.standard_normal((20, 70))
        once = project_35_7_batch(sigma)
        twice = project_35_7_batch(once)
        assert np.abs(once - twice).max() < 1e-12

    def test_kills_27(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            sigma = KForm(8, 4, rng.standard_normal(70))
            part27 = sp7_split_4form(sigma).sigma_27
            assert np.abs(project_35_7_batch(part27.coeffs)).max() < 1e-10

    def test_35_part_is_anti_self_dual_projection(self):
        # on the 1+35 subspace: 2 sigma_35 = sigma - star sigma
        rng = np.random.default_rng(14)
        sigma = KForm(8, 4, rng.standard_normal(70))
        split = sp7_split_4form(sigma)
        s_1_35 = split.sigma_1_35
        lhs = 2 * project_35_7(s_1_35).coeffs
        rhs = (s_1_35 - hodge_star(s_1_35)).coeffs
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_h_of_projection_is_h0(self):
        rng = np.random.default_rng(15)
        sigma = rng.standard_normal((50, 70))
        proj = project_35_7_batch(sigma)
        assert np.abs(h_sp7_batch(proj) - h0_sp7_batch(sigma)).max() < 1e-10


class TestSplitRanks:
    def test_dimension_counts(self):
        eye35 = np.eye(35)
        p_1_27 = np.array([g2_split_3form(KForm(7, 3, c)).eta_1_27.coeffs for c in eye35])
        p_7 = np.array([g2_split_3form(KForm(7, 3, c)).eta_7.coeffs for c in eye35])
        assert np.linalg.matrix_rank(p_1_27) == 28
        assert np.linalg.matrix_rank(p_7) == 7
        q_1_27 = np.array([g2_split_4form(KForm(7, 4, c)).rho_1_27.coeffs for c in eye35])
        q_7 = np.array([g2_split_4form(KForm(7, 4, c)).rho_7.coeffs for c in eye35])
        assert np.linalg.matrix_rank(q_1_27) == 28
        assert np.linalg.matrix_rank(q_7) == 7
        eye70 = np.eye(70)
        splits = [sp7_split_4form(KForm(8, 4, c)) for c in eye70]
        r_1_35 = np.array([s.sigma_1_35.coeffs for s in splits])
        r_7 = np.array([s.sigma_7.coeffs for s in splits])
        r_27 = np.array([s.sigma_27.coeffs for s in splits])
        assert np.linalg.matrix_rank(r_1_35) == 36
        assert np.linalg.matrix_rank(r_7) == 7
        assert np.linalg.matrix_rank(r_27) == 27


class TestMetricFrom3Form:
    def test_standard_anchor(self):
        g, scale = metric_from_3form(G2.form.coeffs)
        assert np.abs(g - np.eye(7)).max() < 1e-12
        assert scale == pytest.approx(1.0, abs=1e-12)

    def test_scaling_homogeneity(self):
        for c in (0.6, 0.9, 1.3, 2.0):
            g, _ = metric_from_3form(((c**3) * G2.form).coeffs)
            assert np.abs(g - c * c * np.eye(7)).max() < 1e-9

    def test_linearization_matches_split(self):
        rng = np.random.default_rng(16)
        worst = 0.0
        for _ in range(25):
            eta = KForm(7, 3, rng.standard_normal(35))
            h = h_from_3form_batch(eta.coeffs)[0]
            fd, _ = fd_derivative(
                lambda t: metric_from_3form((G2.form + t * eta).coeffs)[0],
                0.0, step=1e-4, richardson_levels=2)
            rel = np.abs(fd - h).max() / np.abs(h).max()
            worst = max(worst, rel)
        assert worst < 1e-5

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            metric_from_3form(KForm.zero(7, 3).coeffs)
        with pytest.raises(DegenerateInputError):
            metric_from_3form(-G2.form.coeffs)

    def test_stacked_rows_match_single_rows(self):
        rng = np.random.default_rng(17)
        rows = G2.form.coeffs + 0.2 * rng.standard_normal((2, 3, 35))
        g, scale = metric_from_3form(rows)
        assert g.shape == (2, 3, 7, 7) and scale.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                gij, sij = metric_from_3form(rows[i, j])
                assert np.abs(g[i, j] - gij).max() < 1e-14
                assert scale[i, j] == pytest.approx(sij, rel=1e-14)
        # one degenerate row refuses the whole stack
        with pytest.raises(DegenerateInputError):
            metric_from_3form(np.stack([G2.form.coeffs, np.zeros(35)]))
        with pytest.raises(DimensionError):
            metric_from_3form(np.zeros((2, 21)))
