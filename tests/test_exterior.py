import itertools
import math

import numpy as np
import pytest

from caliblab.exterior import (
    DegenerateInputError,
    DimensionError,
    KForm,
    evaluate,
    form_inner,
    hodge_star,
    interior,
    minors,
    multi_indices,
    orthonormal_frames,
    pullback,
    wedge,
    wedge_coeffs,
)


def random_form(rng, n, k, scale=1.0):
    return KForm(n, k, scale * rng.standard_normal(math.comb(n, k)))


def brute_force_evaluate(a: KForm, vectors):
    """Sum over all permutations with signs, the defining formula."""
    vecs = np.asarray(vectors, float)
    total = 0.0
    for idx, coeff in zip(multi_indices(a.n, a.k), a.coeffs):
        if coeff == 0:
            continue
        for perm in itertools.permutations(range(a.k)):
            sign = perm_sign(perm)
            prod = 1.0
            for slot, which in enumerate(perm):
                prod *= vecs[slot][idx[which]]
            total += coeff * sign * prod
    return total


def perm_sign(perm):
    sign = 1
    seen = list(perm)
    for i in range(len(seen)):
        j = seen.index(min(seen[i:]), i)
        if j != i:
            seen[i], seen[j] = seen[j], seen[i]
            sign = -sign
    return sign


def random_metric(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


class TestWedge:
    def test_basis_case(self):
        out = wedge(KForm.basis(8, 1), KForm.basis(8, 2))
        assert out.coefficient((1, 2)) == 1.0

    def test_block_expansion(self):
        # oracle: expand (e12+e34)^(e56-e78) over all index quadruples by brute force
        a = KForm.from_components(8, 2, {(1, 2): 1, (3, 4): 1})
        b = KForm.from_components(8, 2, {(5, 6): 1, (7, 8): -1})
        out = wedge(a, b)
        ta, tb = a.to_tensor(), b.to_tensor()
        expected = np.zeros((8,) * 4)
        for p in itertools.permutations(range(4)):
            sign = perm_sign(p)
            expected += sign * np.transpose(
                np.einsum("ij,kl->ijkl", ta, tb), axes=p) / 4.0
        assert np.allclose(out.to_tensor(), expected)
        for idx, want in [((1, 2, 5, 6), 1.0), ((1, 2, 7, 8), -1.0),
                          ((3, 4, 5, 6), 1.0), ((3, 4, 7, 8), -1.0)]:
            assert out.coefficient(idx) == want

    def test_graded_commutativity_exact(self):
        rng = np.random.default_rng(0)
        for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
            a = KForm(7, ka, rng.integers(-5, 6, math.comb(7, ka)).astype(float))
            b = KForm(7, kb, rng.integers(-5, 6, math.comb(7, kb)).astype(float))
            lhs = wedge(a, b).coeffs
            rhs = (-1.0) ** (ka * kb) * wedge(b, a).coeffs
            assert np.array_equal(lhs, rhs)

    def test_associativity_exact(self):
        rng = np.random.default_rng(1)
        a = KForm(7, 1, rng.integers(-4, 5, 7).astype(float))
        b = KForm(7, 2, rng.integers(-4, 5, 21).astype(float))
        c = KForm(7, 2, rng.integers(-4, 5, 21).astype(float))
        assert np.array_equal(wedge(wedge(a, b), c).coeffs,
                              wedge(a, wedge(b, c)).coeffs)

    def test_batched_coeffs_match_rowwise(self):
        # the batched kernel against one product per row, with both operands
        # batched, with one broadcast, and with a single row each
        rng = np.random.default_rng(5)
        a = rng.standard_normal((70, 28))
        b = rng.standard_normal((70, 56))
        want = np.array([wedge(KForm(8, 2, x), KForm(8, 3, y)).coeffs for x, y in zip(a, b)])
        assert np.allclose(wedge_coeffs(a, b, 8, 2, 3), want, rtol=0, atol=1e-12)
        want_b0 = np.array([wedge(KForm(8, 2, x), KForm(8, 3, b[0])).coeffs for x in a])
        assert np.allclose(wedge_coeffs(a, b[:1], 8, 2, 3), want_b0, rtol=0, atol=1e-12)
        assert np.allclose(wedge_coeffs(a[:1], b[:1], 8, 2, 3), want[:1], rtol=0, atol=1e-12)

    def test_errors(self):
        with pytest.raises(DimensionError):
            wedge(KForm.basis(7, 1), KForm.basis(8, 1))
        with pytest.raises(DimensionError):
            wedge(KForm.zero(4, 3), KForm.zero(4, 2))


class TestInterior:
    def test_basis_case(self):
        out = interior(np.eye(8)[0], KForm.basis(8, 1, 2))
        assert out.coefficient((2,)) == 1.0

    def test_double_contraction_vanishes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_form(rng, 7, 3)
            v = rng.standard_normal(7)
            out = interior(v, interior(v, a))
            assert np.abs(out.coeffs).max() < 1e-12

    def test_first_slot_contract(self):
        rng = np.random.default_rng(3)
        a = random_form(rng, 6, 3)
        v, w2, w3 = rng.standard_normal((3, 6))
        assert evaluate(interior(v, a), [w2, w3]) == pytest.approx(
            evaluate(a, [v, w2, w3]), abs=1e-12)

    def test_adjoint_of_wedge(self):
        # <v _| a, b> = <a, v^flat ^ b> for the Euclidean metric
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_form(rng, 7, 3)
            b = random_form(rng, 7, 2)
            v = rng.standard_normal(7)
            lhs = form_inner(interior(v, a), b)
            rhs = form_inner(a, wedge(KForm.covector(v), b))
            assert abs(lhs - rhs) < 1e-12

    def test_degree_zero_error(self):
        with pytest.raises(DimensionError):
            interior(np.zeros(7), KForm(7, 0, np.ones(1)))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_leibniz_over_wedge(self, n):
        # v _| (a ^ b) = (v _| a) ^ b + (-1)^deg(a) a ^ (v _| b)
        rng = np.random.default_rng(40 + n)
        for ka in range(1, n):
            for kb in range(1, n - ka + 1):
                a, b = random_form(rng, n, ka), random_form(rng, n, kb)
                v = rng.standard_normal(n)
                lhs = interior(v, wedge(a, b))
                rhs = (wedge(interior(v, a), b)
                       + (-1.0) ** ka * wedge(a, interior(v, b)))
                assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-11, (ka, kb)


class TestEvaluate:
    def test_basis(self):
        assert evaluate(KForm.basis(4, 1, 2), np.eye(4)[:2]) == 1.0

    def test_alternation(self):
        rng = np.random.default_rng(5)
        a = random_form(rng, 7, 3)
        v, w = rng.standard_normal((2, 7))
        assert abs(evaluate(a, [v, v, w])) < 1e-12

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 9)
                                     for k in range(1, 5) if k <= n])
    def test_against_permutation_sum(self, n, k):
        # exhaustive over the supported degrees: the permutation-sum oracle
        rng = np.random.default_rng(6)
        a = random_form(rng, n, k)
        vecs = rng.standard_normal((k, n))
        assert evaluate(a, vecs) == pytest.approx(
            brute_force_evaluate(a, vecs), rel=1e-12, abs=1e-12)

    def test_batched_minors(self):
        rng = np.random.default_rng(7)
        a = random_form(rng, 8, 4)
        rows = rng.standard_normal((9, 4, 8))
        want = [brute_force_evaluate(a, r) for r in rows]
        assert np.allclose(minors(rows) @ a.coeffs, want, rtol=0, atol=1e-12)

    def test_tensor_round_trip(self):
        rng = np.random.default_rng(60)
        a = random_form(rng, 8, 4)
        assert np.array_equal(KForm.from_tensor(a.to_tensor()).coeffs, a.coeffs)

    def test_wrong_vector_count(self):
        with pytest.raises(DimensionError):
            evaluate(KForm.basis(4, 1, 2), np.eye(4)[:3])


def loop_tensor_table(n, k):
    """The expansion table entry by entry: every permutation of every multi-index."""
    flat_pos, sg, src = [], [], []
    for p, idx in enumerate(multi_indices(n, k)):
        for perm in itertools.permutations(range(k)):
            flat = 0
            for t in perm:
                flat = flat * n + idx[t]
            flat_pos.append(flat)
            sg.append(perm_sign(perm))
            src.append(p)
    return (np.asarray(flat_pos, dtype=np.int64), np.asarray(sg, dtype=np.int64),
            np.asarray(src, dtype=np.int64))


class TestTensorTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_entrywise_expansion(self, n):
        from caliblab.exterior import _tensor_table

        for k in range(n + 1):
            for got, want in zip(_tensor_table(n, k), loop_tensor_table(n, k)):
                assert got.dtype == want.dtype and np.array_equal(got, want), (n, k)


class TestHodgeStar:
    def test_complementary_basis(self):
        out = hodge_star(KForm.basis(7, 1, 2, 3))
        assert out.coefficient((4, 5, 6, 7)) == 1.0

    def test_involution_middle_degree(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_form(rng, 8, 4)
            assert np.allclose(hodge_star(hodge_star(a)).coeffs, a.coeffs)

    def test_involution_sign(self):
        rng = np.random.default_rng(8)
        for n, k in [(7, 3), (7, 2), (6, 3), (8, 3)]:
            a = random_form(rng, n, k)
            ss = hodge_star(hodge_star(a))
            assert np.allclose(ss.coeffs, (-1.0) ** (k * (n - k)) * a.coeffs)

    def test_isometry_random_metric(self):
        rng = np.random.default_rng(9)
        g = random_metric(rng, 7)
        for _ in range(10):
            a, b = random_form(rng, 7, 3), random_form(rng, 7, 3)
            lhs = form_inner(hodge_star(a, g), hodge_star(b, g), g)
            assert lhs == pytest.approx(form_inner(a, b, g), rel=1e-12)

    def test_defining_property(self):
        # a ^ star(a) = <a, a> vol_g
        rng = np.random.default_rng(10)
        g = random_metric(rng, 6)
        a = random_form(rng, 6, 2)
        vol = hodge_star(KForm(6, 0, np.ones(1)), g)
        lhs = wedge(a, hodge_star(a, g)).coeffs[0]
        assert lhs == pytest.approx(form_inner(a, a, g) * vol.coeffs[0], rel=1e-10)

    def test_rejects_indefinite_metric(self):
        g = np.diag([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(DegenerateInputError):
            hodge_star(KForm.basis(4, 1), g)

    @pytest.mark.parametrize("n", [3, 4, 6, 7])
    def test_gl_covariance(self, n):
        # A: (R^n, A^T G A) -> (R^n, G) is an isometry, orientation-preserving
        # exactly when det A > 0, so the star of the pulled-back form under the
        # pulled-back metric is the pulled-back star times sign(det A)
        rng = np.random.default_rng(50 + n)
        for trial in range(2):
            g = random_metric(rng, n)
            mat = rng.standard_normal((n, n)) + 2 * np.eye(n)
            if trial % 2:
                mat[0] *= -1  # an orientation-reversing map
            sign = np.sign(np.linalg.det(mat))
            for k in range(n + 1):
                a = random_form(rng, n, k)
                lhs = hodge_star(pullback(a, mat), mat.T @ g @ mat)
                rhs = pullback(hodge_star(a, g), mat)
                scale = max(1.0, np.abs(rhs.coeffs).max())
                assert np.abs(lhs.coeffs - sign * rhs.coeffs).max() < 1e-9 * scale, (k, trial)
                flipped = hodge_star(pullback(a, mat), mat.T @ g @ mat, orientation=int(sign))
                assert np.abs(flipped.coeffs - rhs.coeffs).max() < 1e-9 * scale, (k, trial)


class TestFormInner:
    def test_euclidean_basis(self):
        e12 = KForm.basis(5, 1, 2)
        assert form_inner(e12, e12) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a, b = random_form(rng, 7, 3), random_form(rng, 7, 3)
        assert form_inner(a, b) == form_inner(b, a)

    def test_degree_mismatch(self):
        with pytest.raises(DimensionError):
            form_inner(KForm.zero(7, 2), KForm.zero(7, 3))


def modified_gram_schmidt(rows, g):
    """Rows orthonormalized in input order under the metric g, one at a time."""
    out = np.array(rows, float)
    for i in range(len(out)):
        for j in range(i):
            out[i] -= (out[j] @ g @ out[i]) * out[j]
        out[i] /= math.sqrt(out[i] @ g @ out[i])
    return out


class TestGramSchmidt:
    """orthonormal_frames gives the frames of Gram-Schmidt in row order."""

    def test_axis_plane(self):
        frame, vol = orthonormal_frames(np.eye(4)[:2])
        assert np.array_equal(frame, np.eye(4)[:2])
        assert vol == 1.0

    def test_orthonormal_random_spans(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            frame, _ = orthonormal_frames(rng.standard_normal((3, 7)))
            assert np.abs(frame @ frame.T - np.eye(3)).max() < 1e-12

    def test_orthonormal_under_metric(self):
        rng = np.random.default_rng(13)
        g = random_metric(rng, 5)
        frame, _ = orthonormal_frames(rng.standard_normal((2, 5)), g)
        assert np.abs(frame @ g @ frame.T - np.eye(2)).max() < 1e-12

    def test_tangent_spans_input(self):
        rng = np.random.default_rng(15)
        rows = rng.standard_normal((3, 7))
        frame, _ = orthonormal_frames(rows)
        # every input row is reproduced by its frame coefficients
        coeff = rows @ frame.T
        assert np.abs(coeff @ frame - rows).max() < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        rows = rng.standard_normal((2, 6))
        assert np.array_equal(orthonormal_frames(rows)[0], orthonormal_frames(rows)[0])

    def test_rank_deficient(self):
        rows = np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0]])
        with pytest.raises(DegenerateInputError):
            orthonormal_frames(rows)
        with pytest.raises(DegenerateInputError):
            orthonormal_frames(np.eye(4)[:2], np.diag([1.0, -1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("with_metric", [False, True], ids=["euclidean", "metric"])
    def test_matches_modified_gram_schmidt(self, with_metric):
        rng = np.random.default_rng(17 + with_metric)
        for _ in range(60):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            g = random_metric(rng, n) if with_metric else None
            rows = rng.standard_normal((k, n))
            frame, vol = orthonormal_frames(rows, g)
            gmat = np.eye(n) if g is None else g
            assert np.abs(frame - modified_gram_schmidt(rows, gmat)).max() < 1e-11
            assert vol == pytest.approx(math.sqrt(np.linalg.det(rows @ gmat @ rows.T)),
                                        rel=1e-11)

    def test_stacked_match_per_stack(self):
        rng = np.random.default_rng(18)
        rows = rng.standard_normal((3, 4, 2, 6))
        metrics = np.array([[random_metric(rng, 6) for _ in range(4)] for _ in range(3)])
        for g in (None, metrics[0, 0], metrics):
            frames, vols = orthonormal_frames(rows, g)
            assert frames.shape == rows.shape and vols.shape == (3, 4)
            for i, j in itertools.product(range(3), range(4)):
                gij = g if g is None or g.ndim == 2 else g[i, j]
                want, vol = orthonormal_frames(rows[i, j], gij)
                assert np.abs(frames[i, j] - want).max() < 1e-13
                assert vols[i, j] == pytest.approx(vol, rel=1e-13)
