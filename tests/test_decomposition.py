import math

import numpy as np
import pytest
from oracles import four_form_from_a_27, four_form_from_h_x, three_form_from_h_x

from caliblab.decomposition import (
    H_MAP_COEFFS,
    DegenerateInputError,
    DimensionError,
    g2_split,
    h0_sp7,
    h_from_3form,
    h_from_4form,
    h_sp7,
    hat_eta,
    hat_rho,
    hat_sigma,
    metric_from_3form,
    project_35_7,
    sp7_split,
)
from caliblab.exterior import hodge_star, interior, to_tensor, wedge
from caliblab.structures import standard_kit
from caliblab.submanifold import fd_derivative

G2 = standard_kit("associative")
COASSOC = standard_kit("coassociative")
SP7 = standard_kit("cayley")


def random_forms(rng, n, k, count):
    return rng.standard_normal((count, math.comb(n, k)))


# every kernel on coefficient rows: (name, row width, output shape of one row)
KERNELS = [(name, 35, (7, 7)) for name in ("hat_eta", "hat_rho", "h_from_3form",
                                           "h_from_4form")]
KERNELS += [(name, 70, (8, 8)) for name in ("hat_sigma", "h_sp7", "h0_sp7")]
KERNELS += [("project_35_7", 70, (70,))]


@pytest.mark.parametrize("name,width,out", KERNELS, ids=[k[0] for k in KERNELS])
def test_kernels_keep_leading_shape(name, width, out):
    from caliblab import decomposition

    kernel = getattr(decomposition, name)
    rows = np.random.default_rng(30).standard_normal((2, 3, width))
    stacked = kernel(rows)
    assert stacked.shape == (2, 3) + out
    single = kernel(rows[1, 2])
    assert single.shape == out
    assert np.abs(stacked[1, 2] - single).max() < 1e-12
    assert np.abs(stacked.reshape((6,) + out) - kernel(rows.reshape(6, width))).max() < 1e-12


def test_h_map_names_are_kernels():
    from caliblab import decomposition

    assert all(callable(getattr(decomposition, name)) for name in H_MAP_COEFFS)


class TestG2ThreeFormSplit:
    def test_phi_anchor(self):
        # eta = phi has hat(eta) = 6 Id and Tr = 42, so h = 3 Id - (42/18) Id
        split = g2_split(G2.form, 3)
        assert np.allclose(split.h, (2.0 / 3.0) * np.eye(7), atol=1e-13)
        assert np.abs(split.part_7).max() < 1e-13
        assert np.abs(split.X).max() < 1e-13

    def test_zero(self):
        split = g2_split(np.zeros(35), 3)
        assert np.abs(split.h).max() == 0.0
        assert np.abs(split.X).max() == 0.0
        with pytest.raises(DimensionError):
            g2_split(np.zeros(35), 2)

    def test_trace_relation(self):
        rng = np.random.default_rng(0)
        coeffs = random_forms(rng, 7, 3, 200)
        hats = hat_eta(coeffs)
        hs = h_from_3form(coeffs)
        lhs = 2 * np.trace(hats, axis1=1, axis2=2)
        rhs = 18 * np.trace(hs, axis1=1, axis2=2)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_round_trip_and_orthogonality(self):
        rng = np.random.default_rng(1)
        eta = rng.standard_normal((25, 35))
        split = g2_split(eta, 3)
        rebuilt = split.part_1_27 + split.part_7
        assert np.abs(rebuilt - eta).max() < 1e-12
        assert np.abs(np.sum(split.part_1_27 * split.part_7, axis=-1)).max() < 1e-10
        # the 7-part is (1/2) X _| psi
        again = 0.5 * interior(split.X, COASSOC.form, 7, 4)
        assert np.abs(again - split.part_7).max() < 1e-11
        # re-splitting is stable
        again_split = g2_split(rebuilt, 3)
        assert np.abs(again_split.h - split.h).max() < 1e-12
        assert np.abs(again_split.X - split.X).max() < 1e-12
        # stacked rows split as single rows
        one = g2_split(eta[3], 3)
        assert np.abs(one.h - split.h[3]).max() < 1e-13
        assert np.abs(one.part_7 - split.part_7[3]).max() < 1e-13

    def test_forward_formula_exact_on_integers(self):
        rng = np.random.default_rng(2)
        h = rng.integers(-3, 4, (7, 7)).astype(float)
        h = h + h.T
        x = rng.integers(-3, 4, 7).astype(float)
        eta = three_form_from_h_x(h, x)
        split = g2_split(eta, 3)
        assert np.array_equal(split.h, h)
        assert np.array_equal(split.X, x)


class TestG2FourFormSplit:
    def test_psi_anchor(self):
        split = g2_split(COASSOC.form, 4)
        assert np.allclose(split.h, 0.5 * np.eye(7), atol=1e-13)
        assert np.abs(split.part_7).max() < 1e-13

    def test_trace_relation(self):
        rng = np.random.default_rng(3)
        coeffs = random_forms(rng, 7, 4, 200)
        lhs = 2 * np.trace(hat_rho(coeffs), axis1=1, axis2=2)
        rhs = 96 * np.trace(h_from_4form(coeffs), axis1=1, axis2=2)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        rho = rng.standard_normal((25, 35))
        split = g2_split(rho, 4)
        rebuilt = split.part_1_27 + split.part_7
        assert np.abs(rebuilt - rho).max() < 1e-12
        assert np.abs(np.sum(split.part_1_27 * split.part_7, axis=-1)).max() < 1e-10
        # the 7-part is (1/2) X ^ phi
        again = 0.5 * wedge(split.X, G2.form, 7, 1, 3)
        assert np.abs(again - split.part_7).max() < 1e-11

    def test_forward_formula_exact_on_integers(self):
        rng = np.random.default_rng(5)
        h = rng.integers(-3, 4, (7, 7)).astype(float)
        h = h + h.T
        x = rng.integers(-3, 4, 7).astype(float)
        rho = four_form_from_h_x(h, x)
        split = g2_split(rho, 4)
        assert np.array_equal(split.h, h)
        assert np.array_equal(split.X, x)


class TestSpin7Split:
    def test_phi_anchor(self):
        split = sp7_split(SP7.form)
        assert np.allclose(split.h, 0.5 * np.eye(8), atol=1e-13)
        assert np.abs(split.h0).max() < 1e-13
        assert np.abs(split.sigma_7).max() < 1e-12
        assert np.abs(split.sigma_27).max() < 1e-12

    def test_trace_relation_and_tracefree(self):
        rng = np.random.default_rng(6)
        coeffs = random_forms(rng, 8, 4, 200)
        lhs = 2 * np.trace(hat_sigma(coeffs), axis1=1, axis2=2)
        rhs = 168 * np.trace(h_sp7(coeffs), axis1=1, axis2=2)
        assert np.abs(lhs - rhs).max() < 1e-10
        assert np.abs(np.trace(h0_sp7(coeffs), axis1=1, axis2=2)).max() < 1e-12

    def test_round_trip_and_27_condition(self):
        rng = np.random.default_rng(7)
        sigma = rng.standard_normal((15, 70))
        split = sp7_split(sigma)
        rebuilt = split.sigma_1_35 + split.sigma_7 + split.sigma_27
        assert np.abs(rebuilt - sigma).max() < 1e-12
        # sigma_27 satisfies the contraction characterization
        vio = np.einsum("nijkl,mjkl->nim", to_tensor(split.sigma_27, 8, 4), SP7.tensor)
        assert np.abs(vio).max() < 1e-9
        # beta is skew and the three pieces are mutually orthogonal
        assert np.abs(split.beta + np.swapaxes(split.beta, -1, -2)).max() < 1e-12
        assert np.abs(np.sum(split.sigma_1_35 * split.sigma_7, axis=-1)).max() < 1e-9
        assert np.abs(np.sum(split.sigma_7 * split.sigma_27, axis=-1)).max() < 1e-9
        # stacked rows split as single rows
        one = sp7_split(sigma[4])
        for got, want in zip((one.sigma_27, one.h0, one.beta),
                             (split.sigma_27[4], split.h0[4], split.beta[4])):
            assert np.abs(got - want).max() < 1e-12

    def test_forward_formula_exact(self):
        rng = np.random.default_rng(8)
        h = rng.integers(-3, 4, (8, 8)).astype(float)
        h = h + h.T
        beta_raw = rng.integers(-3, 4, (8, 8)).astype(float)
        beta = beta_raw - beta_raw.T
        # a generic skew part contributes only through its 7-type component
        sigma0 = four_form_from_a_27(h + beta, np.zeros(70))
        split = sp7_split(sigma0)
        again = four_form_from_a_27(split.h + split.beta, split.sigma_27)
        assert np.abs(again - sigma0).max() < 1e-10

    def test_anti_self_dual_input(self):
        rng = np.random.default_rng(9)
        sigma = rng.standard_normal((10, 70))
        split = sp7_split(0.5 * (sigma - hodge_star(sigma, 8, 4)))
        assert np.abs(np.trace(split.h, axis1=-2, axis2=-1)).max() < 1e-10
        assert np.abs(split.sigma_7).max() < 1e-10
        assert np.abs(split.sigma_27).max() < 1e-10

    def test_self_dual_cross_checks(self):
        from caliblab.decomposition import _sp7_maps

        rng = np.random.default_rng(10)
        asm = _sp7_maps()[1]
        split = sp7_split(rng.standard_normal(70))
        s35 = asm @ split.h0.reshape(64)
        assert np.abs(hodge_star(s35, 8, 4) + s35).max() < 1e-10
        sd = (split.sigma_1_35 - s35) + split.sigma_7 + split.sigma_27
        assert np.abs(hodge_star(sd, 8, 4) - sd).max() < 1e-10

    def test_h_annihilates_type_7(self):
        rng = np.random.default_rng(11)
        part7 = sp7_split(rng.standard_normal((10, 70))).sigma_7
        assert np.abs(h_sp7(part7)).max() < 1e-10


class TestContractionTables:
    """The scattered tables against contractions of the stacked basis tensors."""

    def test_g2_tables_bit_identical(self):
        from caliblab.decomposition import _g2_maps

        phi_t, psi_t = G2.tensor, COASSOC.tensor
        b3, b4 = to_tensor(np.eye(35), 7, 3), to_tensor(np.eye(35), 7, 4)
        (hat3, _, x3), (hat4, _, x4) = _g2_maps(3), _g2_maps(4)
        assert np.array_equal(hat3, np.einsum("cpij,qij->cpq", b3, phi_t).reshape(35, 49).T)
        assert np.array_equal(hat4, np.einsum("cpijk,qijk->cpq", b4, psi_t).reshape(35, 49).T)
        assert np.array_equal(x3, np.einsum("cijk,qijk->cq", b3, psi_t).T / 12.0)
        assert np.array_equal(x4, np.einsum("cijkl,jkl->ci", b4, phi_t).T / 12.0)

    def test_spin7_table_bit_identical(self):
        from caliblab.decomposition import _sp7_maps

        Phi_t = SP7.tensor
        want = np.einsum("cpijk,qijk->cpq", to_tensor(np.eye(70), 8, 4), Phi_t).reshape(70, 64).T
        assert np.array_equal(_sp7_maps()[0], want)

    def test_assembly_maps_match_wedge_interior(self):
        # column (i, j) of each assembly map is (1/2) e_i ^ (e_j _| form), built
        # basis pair by basis pair; the maps come from the hat maps, exactly
        from caliblab.decomposition import _g2_maps, _sp7_maps

        for asm, kit in ((_g2_maps(3)[1], G2), (_g2_maps(4)[1], COASSOC), (_sp7_maps()[1], SP7)):
            n, k = kit.n, kit.arity + 1
            eye = np.eye(n)
            want = np.stack([0.5 * wedge(eye[i], interior(eye[j], kit.form, n, k), n, 1, k - 1)
                             for i in range(n) for j in range(n)], axis=1)
            assert np.array_equal(asm, want)

    def test_spin7_index_tables_match_loops(self):
        # star column by column through hodge_star, and the pair tables entry by
        # entry over the lexicographic pairs, as the builders once did
        from caliblab.decomposition import _sp7_maps

        _, asm, star, q7, beta_from = _sp7_maps()
        Phi_t = SP7.tensor
        eye70 = np.eye(70)
        want_star = np.zeros((70, 70))
        for c in range(70):
            want_star[:, c] = hodge_star(eye70[c], 8, 4)
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

        split = sp7_split(np.random.default_rng(13).standard_normal(70))
        pair_coeffs = split.sigma_7 @ beta_from.T
        want_beta = np.zeros((8, 8))
        for a, (i, j) in enumerate(pairs):
            want_beta[i, j] = pair_coeffs[a]
            want_beta[j, i] = -pair_coeffs[a]
        assert np.array_equal(split.beta, want_beta)


class TestProjection:
    def test_kills_phi(self):
        assert np.abs(project_35_7(SP7.form)).max() < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        sigma = rng.standard_normal((20, 70))
        once = project_35_7(sigma)
        twice = project_35_7(once)
        assert np.abs(once - twice).max() < 1e-12

    def test_kills_27(self):
        rng = np.random.default_rng(13)
        part27 = sp7_split(rng.standard_normal((10, 70))).sigma_27
        assert np.abs(project_35_7(part27)).max() < 1e-10

    def test_35_part_is_anti_self_dual_projection(self):
        # on the 1+35 subspace: 2 sigma_35 = sigma - star sigma
        rng = np.random.default_rng(14)
        s_1_35 = sp7_split(rng.standard_normal(70)).sigma_1_35
        lhs = 2 * project_35_7(s_1_35)
        rhs = s_1_35 - hodge_star(s_1_35, 8, 4)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_h_of_projection_is_h0(self):
        rng = np.random.default_rng(15)
        sigma = rng.standard_normal((50, 70))
        proj = project_35_7(sigma)
        assert np.abs(h_sp7(proj) - h0_sp7(sigma)).max() < 1e-10


class TestSplitRanks:
    def test_dimension_counts(self):
        eye35 = np.eye(35)
        three, four = g2_split(eye35, 3), g2_split(eye35, 4)
        assert np.linalg.matrix_rank(three.part_1_27) == 28
        assert np.linalg.matrix_rank(three.part_7) == 7
        assert np.linalg.matrix_rank(four.part_1_27) == 28
        assert np.linalg.matrix_rank(four.part_7) == 7
        split = sp7_split(np.eye(70))
        assert np.linalg.matrix_rank(split.sigma_1_35) == 36
        assert np.linalg.matrix_rank(split.sigma_7) == 7
        assert np.linalg.matrix_rank(split.sigma_27) == 27


class TestMetricFrom3Form:
    def test_standard_anchor(self):
        g, scale = metric_from_3form(G2.form)
        assert np.abs(g - np.eye(7)).max() < 1e-12
        assert scale == pytest.approx(1.0, abs=1e-12)

    def test_scaling_homogeneity(self):
        for c in (0.6, 0.9, 1.3, 2.0):
            g, _ = metric_from_3form((c**3) * G2.form)
            assert np.abs(g - c * c * np.eye(7)).max() < 1e-9

    def test_linearization_matches_split(self):
        rng = np.random.default_rng(16)
        worst = 0.0
        for _ in range(25):
            eta = rng.standard_normal(35)
            h = h_from_3form(eta)
            fd, _ = fd_derivative(
                lambda t: metric_from_3form(G2.form + t * eta)[0],
                0.0, step=1e-4, richardson_levels=2)
            rel = np.abs(fd - h).max() / np.abs(h).max()
            worst = max(worst, rel)
        assert worst < 1e-5

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            metric_from_3form(np.zeros(35))
        with pytest.raises(DegenerateInputError):
            metric_from_3form(-G2.form)

    def test_stacked_rows_match_single_rows(self):
        rng = np.random.default_rng(17)
        rows = G2.form + 0.2 * rng.standard_normal((2, 3, 35))
        g, scale = metric_from_3form(rows)
        assert g.shape == (2, 3, 7, 7) and scale.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                gij, sij = metric_from_3form(rows[i, j])
                assert np.abs(g[i, j] - gij).max() < 1e-14
                assert scale[i, j] == pytest.approx(sij, rel=1e-14)
        # one degenerate row refuses the whole stack
        with pytest.raises(DegenerateInputError):
            metric_from_3form(np.stack([G2.form, np.zeros(35)]))
        with pytest.raises(DimensionError):
            metric_from_3form(np.zeros((2, 21)))
