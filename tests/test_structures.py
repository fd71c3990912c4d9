import math
from itertools import combinations

import numpy as np
import pytest

from caliblab import structures
from caliblab.exterior import DimensionError, minors, orthonormal_frames, to_tensor
from caliblab.structures import (
    associative_equality_residuals,
    calibration_report,
    coassociative_equality_residuals,
    comass_sample,
    g2_identity_violations,
    invariance_defect,
    spin7_identity_violations,
    standard_kit,
)

G2 = standard_kit("associative")
COASSOC = standard_kit("coassociative")
SP7 = standard_kit("cayley")
E7 = np.eye(7)
E8 = np.eye(8)


def coefficient(row, n, idx):
    """The coefficient of a form row on a 1-based multi-index (any order)."""
    return to_tensor(row, n, len(idx))[tuple(i - 1 for i in idx)]


def evaluate(row, vectors):
    return float(minors(np.asarray(vectors, float)) @ row)


class TestStandardKits:
    def test_g2_phi_quoted_coefficients(self):
        phi = G2.form
        assert coefficient(phi, 7, (1, 2, 3)) == 1.0
        assert coefficient(phi, 7, (1, 6, 7)) == -1.0
        assert coefficient(phi, 7, (1, 4, 5)) == 1.0

    def test_psi_is_star_phi_frame_expression(self):
        # e4567 - e23^(e45-e67) - e31^(e46-e75) - e12^(e47-e56)
        psi = COASSOC.form
        expected = {(4, 5, 6, 7): 1.0, (2, 3, 4, 5): -1.0, (2, 3, 6, 7): 1.0,
                    (1, 3, 4, 6): 1.0, (1, 3, 5, 7): 1.0, (1, 2, 4, 7): -1.0,
                    (1, 2, 5, 6): 1.0}
        for idx, want in expected.items():
            assert coefficient(psi, 7, idx) == want
        assert np.count_nonzero(psi) == 7

    def test_spin7_quoted_coefficients(self):
        Phi = SP7.form
        assert coefficient(Phi, 8, (1, 2, 3, 4)) == 1.0
        assert coefficient(Phi, 8, (5, 6, 7, 8)) == 1.0
        assert np.count_nonzero(Phi) == 14

    def test_spin7_self_dual(self):
        from caliblab.exterior import hodge_star

        assert np.array_equal(hodge_star(SP7.form, 8, 4), SP7.form)

    def test_um_standard(self):
        kit = standard_kit("um", m=2, k=1)
        assert coefficient(kit.form, 4, (1, 2)) == 1.0
        assert coefficient(kit.form, 4, (3, 4)) == 1.0
        j = kit.tensor.T
        assert np.allclose(j @ j, -np.eye(4))
        # omega(X, Y) = <JX, Y>
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 4))
        assert evaluate(kit.form, [x, y]) == pytest.approx((j @ x) @ y)

    def test_um_mu_power(self):
        kit = standard_kit("um", m=3, k=2)
        # omega^2/2 evaluates to 1 on a complex 4-plane
        assert evaluate(kit.mu, np.eye(6)[:4]) == pytest.approx(1.0)

    def test_one_read_only_record_per_case(self):
        for case in ("associative", "coassociative", "cayley"):
            kit = standard_kit(case)
            assert standard_kit(case, m=4, k=1) is kit  # m and k apply to U(m) only
            assert kit.form.shape == (math.comb(kit.n, kit.arity + 1),)
            assert kit.mu.shape == (math.comb(kit.n, kit.calibration_dim),)
            assert np.array_equal(kit.tensor, to_tensor(kit.form, kit.n, kit.arity + 1))
        assert standard_kit("um", 3, 2) is standard_kit("um", m=3, k=2)
        for kit in (standard_kit("um", 3, 2), G2):
            for array in (kit.tensor, kit.form, kit.mu):
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_invalid_um(self):
        with pytest.raises(DimensionError):
            standard_kit("um", m=2, k=2)
        with pytest.raises(ValueError):
            standard_kit("nonsense")


class TestQuotedFormValues:
    def test_interior_of_phi(self):
        from caliblab.exterior import interior

        out = interior(E7[0], G2.form, 7, 3)
        want = {(2, 3): 1.0, (4, 5): 1.0, (6, 7): -1.0}
        for idx, val in want.items():
            assert coefficient(out, 7, idx) == val
        assert np.count_nonzero(out) == 3

    def test_phi_norm_squared(self):
        assert G2.form @ G2.form == 7.0

    def test_phi_evaluates_on_frame(self):
        assert evaluate(G2.form, E7[:3]) == 1.0


class TestCrossProducts:
    def test_g2_frame_relations(self):
        assert np.allclose(G2.cross(E7[0], E7[1]), E7[2])
        assert np.allclose(G2.cross(E7[0], E7[3]), E7[4])
        assert np.allclose(G2.cross(E7[1], E7[3]), E7[5])
        assert np.allclose(G2.cross(E7[2], E7[3]), E7[6])

    def test_self_cross_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(7)
            assert np.abs(G2.cross(x, x)).max() < 1e-12

    def test_cross_orthogonality_and_norm(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, y = rng.standard_normal((2, 7))
            v = G2.cross(x, y)
            assert abs(v @ x) < 1e-10 and abs(v @ y) < 1e-10
            gram = np.linalg.det(np.array([x, y]) @ np.array([x, y]).T)
            assert v @ v == pytest.approx(gram, rel=1e-10)

    def test_chi_on_planes(self):
        assert np.abs(COASSOC.cross(E7[0], E7[1], E7[2])).max() < 1e-12
        out = COASSOC.cross(E7[3], E7[4], E7[5])
        assert np.allclose(out, E7[6])
        assert evaluate(G2.form, [E7[3], E7[4], E7[5]]) == 0.0

    def test_chi_alternating(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((2, 7))
        assert np.abs(COASSOC.cross(x, x, y)).max() < 1e-12

    def test_cayley_cross_basis(self):
        out = SP7.cross(E8[0], E8[1], E8[2])
        assert np.allclose(out, E8[3])
        for i in range(3):
            assert abs(out @ E8[i]) < 1e-14

    def test_cayley_cross_norm_oracle(self):
        # |P(X,Y,Z)|^2 must equal the Gram determinant of (X, Y, Z)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y, z = rng.standard_normal((3, 8))
            p = SP7.cross(x, y, z)
            gram = np.linalg.det(np.array([x, y, z]) @ np.array([x, y, z]).T)
            assert p @ p == pytest.approx(gram, rel=1e-10, abs=1e-12)


class TestPartialContraction:
    KITS = {"um": standard_kit("um", m=3, k=1), "associative": G2,
            "coassociative": COASSOC, "cayley": SP7}

    @staticmethod
    def reference(tensor, vectors):
        """tensor(v_1, ..., v_j, ., ..., .) over stacked (3, 5, n) vectors."""
        idx = "abcd"[: tensor.ndim]
        ins = "".join(f",yz{c}" for c in idx[: len(vectors)])
        return np.einsum(f"{idx}{ins}->yz{idx[len(vectors):]}", tensor, *vectors)

    @pytest.mark.parametrize("case", sorted(KITS))
    def test_leading_slots_match_einsum(self, case):
        kit = self.KITS[case]
        vs = np.random.default_rng(8).standard_normal((kit.arity, 3, 5, kit.n))
        assert kit.cross() is kit.tensor
        for j in range(1, kit.arity + 1):
            got = kit.cross(*vs[:j])
            assert got.shape == (3, 5) + (kit.n,) * (kit.arity + 1 - j)
            assert np.allclose(got, self.reference(kit.tensor, vs[:j]), rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("case", sorted(KITS))
    def test_open_slot_is_a_matmul(self, case):
        # x @ cross(S) is cross(S, x) for a selection S of arity - 1 vectors
        kit = self.KITS[case]
        rng = np.random.default_rng(9)
        S = rng.standard_normal((kit.arity - 1, 3, 5, kit.n))
        x = rng.standard_normal((3, 5, kit.n))
        got = (x[..., None, :] @ kit.cross(*S))[..., 0, :]
        assert np.allclose(got, kit.cross(*S, x), rtol=1e-13, atol=1e-13)


class TestIdentities:
    def test_g2_exact(self):
        violations = g2_identity_violations(G2.tensor, COASSOC.tensor)
        assert set(violations) == {"phiphi-pair", "phiphi-trace", "phipsi",
                                   "phipsi-trace", "psipsi-pair", "psipsi-trace"}
        assert all(v == 0 for v in violations.values())

    def test_spin7_exact(self):
        violations = spin7_identity_violations(SP7.tensor)
        assert set(violations) == {"PhiPhi-pair", "PhiPhi-trace"}
        assert all(v == 0 for v in violations.values())

    def test_trace_normalizations(self):
        phi, psi, Phi = G2.tensor, COASSOC.tensor, SP7.tensor
        assert np.array_equal(np.einsum("ipq,jpq->ij", phi, phi), 6 * np.eye(7))
        assert np.array_equal(np.einsum("impq,jmpq->ij", psi, psi), 24 * np.eye(7))
        assert np.array_equal(np.einsum("impq,jmpq->ij", Phi, Phi), 42 * np.eye(8))

    def test_equalities_random(self):
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((4, 2000, 7))
        assert np.abs(associative_equality_residuals(*xs[:3])).max() < 1e-10
        assert np.abs(coassociative_equality_residuals(*xs)).max() < 1e-10


def _einsum_associative(xs, ys, zs):
    """The equality as written: psi and phi contracted with all rows in one einsum."""
    phi_t, psi_t = G2.tensor, COASSOC.tensor
    chi = np.einsum("ijkl,bi,bj,bk->bl", psi_t, xs, ys, zs)
    phi_vals = np.einsum("ijk,bi,bj,bk->b", phi_t, xs, ys, zs)
    stacks = np.stack([xs, ys, zs], axis=1)
    return (np.einsum("bl,bl->b", chi, chi) + phi_vals**2
            - np.linalg.det(stacks @ np.swapaxes(stacks, 1, 2)))


def _einsum_coassociative(xs, ys, zs, ws):
    phi_t, psi_t = G2.tensor, COASSOC.tensor
    psi_vals = np.einsum("ijkl,bi,bj,bk,bl->b", psi_t, xs, ys, zs, ws)

    def p(a, b, c):
        return np.einsum("ijk,bi,bj,bk->b", phi_t, a, b, c)

    vec = (p(ys, zs, ws)[:, None] * xs - p(xs, zs, ws)[:, None] * ys
           + p(xs, ys, ws)[:, None] * zs - p(xs, ys, zs)[:, None] * ws)
    stacks = np.stack([xs, ys, zs, ws], axis=1)
    return (psi_vals**2 + np.einsum("bl,bl->b", vec, vec)
            - np.linalg.det(stacks @ np.swapaxes(stacks, 1, 2)))


class TestStagedEqualityKernels:
    """The block-staged equality kernels against the one-einsum formulation."""

    @staticmethod
    def block_rows():
        from caliblab.structures import _blocks
        return next(_blocks(10**6, 49)).stop

    def test_matches_einsum_formulation(self):
        rng = np.random.default_rng(11)
        b = self.block_rows()
        for rows in (1, b - 1, b, b + 1, 10**4):
            xs = rng.standard_normal((4, rows, 7))
            # both are round-off of terms of size prod |v_i|^2 (Hadamard)
            scale_a = np.prod(np.sum(xs[:3] ** 2, axis=2), axis=0)
            scale_c = np.prod(np.sum(xs ** 2, axis=2), axis=0)
            got_a = associative_equality_residuals(*xs[:3])
            got_c = coassociative_equality_residuals(*xs)
            assert got_a.shape == got_c.shape == (rows,)
            assert np.max(np.abs(got_a - _einsum_associative(*xs[:3])) / scale_a) <= 1e-12
            assert np.max(np.abs(got_c - _einsum_coassociative(*xs)) / scale_c) <= 1e-12

    def test_nan_row_gives_nan_residual(self):
        # cmd_identities takes np.maximum over chunks, which keeps a NaN
        xs = np.random.default_rng(3).standard_normal((4, self.block_rows() + 3, 7))
        xs[1, -2, 4] = np.nan
        with np.errstate(invalid="ignore"):  # det warns on the NaN row
            results = (associative_equality_residuals(*xs[:3]),
                       coassociative_equality_residuals(*xs))
        for got in results:
            assert np.isnan(got[-2]) and np.isfinite(np.delete(got, -2)).all()

    def test_memory_bounded_by_blocks(self):
        import tracemalloc

        xs = np.random.default_rng(4).standard_normal((4, 10**4, 7))
        associative_equality_residuals(*xs[:3])  # builds the cached tensors
        for kernel, rows in ((associative_equality_residuals, xs[:3]),
                             (coassociative_equality_residuals, xs)):
            tracemalloc.start()
            try:
                kernel(*rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1_000_000, (kernel.__name__, peak)


class TestCalibrationReport:
    def test_associative_plane(self):
        rep = calibration_report(G2, E7[:3])
        assert rep.value == 1.0 and rep.defect == 0.0 and rep.is_calibrated

    def test_coassociative_plane(self):
        rep = calibration_report(COASSOC, E7[3:7])
        assert abs(rep.value) == 1.0 and rep.is_calibrated
        # phi restricts to zero
        restricted = [evaluate(G2.form, E7[list(t)])
                      for t in [(3, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6)]]
        assert max(abs(v) for v in restricted) == 0.0

    def test_cayley_noncalibrated_plane(self):
        rep = calibration_report(SP7, E8[[0, 1, 2, 4]])
        assert abs(rep.value) < 1 - 1e-8
        assert rep.defect > 1e-3 and not rep.is_calibrated

    def test_wrong_plane_dimension(self):
        with pytest.raises(DimensionError):
            calibration_report(G2, E7[:4])
        with pytest.raises(DimensionError):
            calibration_report(G2, E8[:3])

    def test_defect_invariant_under_respanning(self):
        rng = np.random.default_rng(6)
        basis = rng.standard_normal((3, 7))
        base = calibration_report(G2, basis)
        for _ in range(10):
            mix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            rep = calibration_report(G2, mix @ basis)
            assert rep.defect == pytest.approx(base.defect, abs=1e-10)
            assert abs(rep.value) == pytest.approx(abs(base.value), abs=1e-10)

    def test_defect_orientation_independent(self):
        rng = np.random.default_rng(7)
        basis = rng.standard_normal((4, 8))
        flipped = basis[[1, 0, 2, 3]]
        a = calibration_report(SP7, basis)
        b = calibration_report(SP7, flipped)
        assert a.defect == pytest.approx(b.defect, abs=1e-12)
        assert a.value == pytest.approx(-b.value, abs=1e-12)

    def test_report_consistency(self):
        # is_calibrated iff defect small iff |value| near 1
        rng = np.random.default_rng(8)
        for _ in range(40):
            basis = rng.standard_normal((3, 7))
            rep = calibration_report(G2, basis)
            assert rep.is_calibrated == (rep.defect < 1e-8)
            assert rep.is_calibrated == (abs(rep.value) > 1 - 1e-8)

    @pytest.mark.parametrize("case", ["um", "associative", "coassociative", "cayley"])
    def test_stacked_defect_matches_per_frame(self, case):
        from caliblab.variation import PLANE_CATALOG

        n, good, _ = PLANE_CATALOG[case]
        kit = standard_kit(case, m=n // 2, k=1)
        k = kit.calibration_dim
        q = np.linalg.qr(np.random.default_rng(9).standard_normal((3, 5, n, k)))[0]
        frames = np.swapaxes(q, -1, -2)  # (3, 5, k, n), orthonormal rows
        stacked = invariance_defect(kit, frames)
        assert stacked.shape == (3, 5)
        per_frame = [[invariance_defect(kit, f) for f in row] for row in frames]
        assert np.allclose(stacked, per_frame, rtol=1e-12, atol=0)
        assert stacked.min() > 1e-3
        planes = np.stack([np.eye(n)[[a - 1 for a in axes]] for axes in good if len(axes) == k])
        assert np.abs(invariance_defect(kit, planes)).max() < 1e-14


def _defect_over_every_row(kit, tangent):
    """The defect summed over every selection S and every tangent row f, the
    rows in S included: the formula the distinct-set defect must reproduce."""
    sel = np.array(list(combinations(range(tangent.shape[-2]), kit.arity - 1)), dtype=int)
    rows = tangent[..., sel, None, :]
    frame = tangent[..., None, :, :]
    crossed = kit.cross(*(rows[..., j, :, :] for j in range(sel.shape[1])), frame)
    normal = crossed - (crossed @ np.swapaxes(frame, -1, -2)) @ frame
    return np.sum(normal * normal, axis=(-3, -2, -1))


class TestDefectTerms:
    KITS = {"um-3-1": standard_kit("um", m=3, k=1), "um-3-2": standard_kit("um", m=3, k=2),
            "um-4-3": standard_kit("um", m=4, k=3), "associative": G2,
            "coassociative": COASSOC, "cayley": SP7}
    # products a frame makes: one per distinct set of arity rows, C(k, arity)
    PRODUCTS = {"associative": 3, "coassociative": 4, "cayley": 4}

    @pytest.mark.parametrize("name", sorted(KITS))
    def test_pairs_only_match_every_row(self, name, monkeypatch):
        kit = self.KITS[name]
        n, k = kit.n, kit.calibration_dim
        q = np.linalg.qr(np.random.default_rng(11).standard_normal((2, 3, n, k)))[0]
        frames = np.swapaxes(q, -1, -2)  # (2, 3, k, n), orthonormal rows
        want = _defect_over_every_row(kit, frames)
        assert want.min() > 1e-3

        # count the product rows each cross product forms
        counted = []

        def counting(fn):
            def wrapped(*args):
                out = fn(*args)
                counted.append(int(np.prod(out.shape[:-1])))
                return out
            return wrapped

        monkeypatch.setattr(structures.Kit, "cross", counting(structures.Kit.cross))
        got = invariance_defect(kit, frames)
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        assert counted == [got.size * self.PRODUCTS.get(name, k)]


class TestCoassociativeCondition:
    """Both directions of: coassociative iff chi preserves the tangent space."""

    def chi_tangency_defect(self, plane_rows):
        frame = orthonormal_frames(plane_rows)[0]
        return invariance_defect(COASSOC, frame)

    def phi_restriction(self, plane_rows):
        frame = orthonormal_frames(plane_rows)[0]
        vals = [evaluate(G2.form, frame[list(t)])
                for t in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]]
        return max(abs(v) for v in vals)

    def test_forward_and_converse(self):
        coassoc_planes = [E7[3:7], E7[[1, 2, 5, 6]], E7[[1, 2, 3, 4]]]
        non_planes = [E7[[0, 1, 2, 3]], E7[[0, 1, 2, 4]], E7[[0, 3, 4, 5]]]
        for rows in coassoc_planes:
            assert self.phi_restriction(rows) < 1e-12
            assert self.chi_tangency_defect(rows) < 1e-12
        for rows in non_planes:
            assert self.phi_restriction(rows) > 1e-3
            assert self.chi_tangency_defect(rows) > 1e-3

    def test_lambda_chain(self):
        # on planes with tangent-preserved chi: lambda^2 + 4(1 - lambda^2) = 1
        for rows in [E7[3:7], E7[[1, 2, 5, 6]], E7[[0, 2, 4, 6]]]:
            frame = orthonormal_frames(rows)[0]
            if invariance_defect(COASSOC, frame) > 1e-10:
                continue
            lam = evaluate(COASSOC.form, frame)
            phis = [evaluate(G2.form, frame[list(t)])
                    for t in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]]
            for p in phis:
                assert lam**2 + p**2 == pytest.approx(1.0, abs=1e-12)
            assert lam**2 + 4 * (1 - lam**2) == pytest.approx(1.0, abs=1e-12)
            assert abs(lam) == pytest.approx(1.0, abs=1e-12)


class TestComass:
    def test_g2_phi_comass(self):
        best = comass_sample(G2, 3000, seed=1)
        assert best <= 1 + 1e-10
        assert best > 0.999

    def test_um_wirtinger(self):
        kit = standard_kit("um", m=3, k=2)
        best = comass_sample(kit, 3000, seed=2)
        assert best <= 1 + 1e-10

    def test_calibrated_sample_attains_bound(self):
        rep = calibration_report(G2, E7[:3])
        assert rep.value == 1.0

    def test_deterministic_given_seed(self):
        assert comass_sample(G2, 500, seed=9) == comass_sample(G2, 500, seed=9)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            comass_sample(G2, 0)
