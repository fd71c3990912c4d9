import itertools
import math

import numpy as np
import pytest

from caliblab.exterior import (
    DegenerateInputError,
    DimensionError,
    form_coeffs,
    from_tensor,
    hodge_star,
    interior,
    minors,
    multi_indices,
    orthonormal_frames,
    to_tensor,
    wedge,
)


def random_form(rng, n, k, scale=1.0):
    return scale * rng.standard_normal(math.comb(n, k))


def basis(n, *axes):
    """The row of e^{i1} ^ ... ^ e^{ik} for 1-based axes."""
    return form_coeffs(n, len(axes), {axes: 1.0})


def brute_force_evaluate(coeffs, n, k, vectors):
    """Sum over all permutations with signs, the defining formula."""
    vecs = np.asarray(vectors, float)
    total = 0.0
    for idx, coeff in zip(multi_indices(n, k), coeffs):
        if coeff == 0:
            continue
        for perm in itertools.permutations(range(k)):
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


def integer_form(rng, n, k, bound):
    return rng.integers(-bound, bound + 1, math.comb(n, k)).astype(float)


class TestWedge:
    def test_basis_case(self):
        out = wedge(basis(8, 1), basis(8, 2), 8, 1, 1)
        assert np.array_equal(out, basis(8, 1, 2))

    def test_block_expansion(self):
        # oracle: expand (e12+e34)^(e56-e78) over all index quadruples by brute force
        a = form_coeffs(8, 2, {(1, 2): 1, (3, 4): 1})
        b = form_coeffs(8, 2, {(5, 6): 1, (7, 8): -1})
        out = wedge(a, b, 8, 2, 2)
        ta, tb = to_tensor(a, 8, 2), to_tensor(b, 8, 2)
        expected = np.zeros((8,) * 4)
        for p in itertools.permutations(range(4)):
            sign = perm_sign(p)
            expected += sign * np.transpose(
                np.einsum("ij,kl->ijkl", ta, tb), axes=p) / 4.0
        assert np.allclose(to_tensor(out, 8, 4), expected)
        assert np.array_equal(out, form_coeffs(8, 4, {(1, 2, 5, 6): 1.0, (1, 2, 7, 8): -1.0,
                                                      (3, 4, 5, 6): 1.0, (3, 4, 7, 8): -1.0}))

    def test_graded_commutativity_exact(self):
        rng = np.random.default_rng(0)
        for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]:
            a, b = integer_form(rng, 7, ka, 5), integer_form(rng, 7, kb, 5)
            lhs = wedge(a, b, 7, ka, kb)
            rhs = (-1.0) ** (ka * kb) * wedge(b, a, 7, kb, ka)
            assert np.array_equal(lhs, rhs)

    def test_associativity_exact(self):
        rng = np.random.default_rng(1)
        a, b, c = integer_form(rng, 7, 1, 4), integer_form(rng, 7, 2, 4), integer_form(rng, 7, 2, 4)
        assert np.array_equal(wedge(wedge(a, b, 7, 1, 2), c, 7, 3, 2),
                              wedge(a, wedge(b, c, 7, 2, 2), 7, 1, 4))

    def test_batched_coeffs_match_rowwise(self):
        # the batched path against one product per row, with both operands
        # batched, with one broadcast, and with a single row each
        rng = np.random.default_rng(5)
        a = rng.standard_normal((70, 28))
        b = rng.standard_normal((70, 56))
        want = np.array([wedge(x, y, 8, 2, 3) for x, y in zip(a, b)])
        assert np.allclose(wedge(a, b, 8, 2, 3), want, rtol=0, atol=1e-12)
        want_b0 = np.array([wedge(x, b[0], 8, 2, 3) for x in a])
        assert np.allclose(wedge(a, b[:1], 8, 2, 3), want_b0, rtol=0, atol=1e-12)
        assert np.allclose(wedge(a[:1], b[:1], 8, 2, 3), want[:1], rtol=0, atol=1e-12)

    def test_errors(self):
        with pytest.raises(DimensionError):
            wedge(np.zeros(4), np.zeros(6), 4, 3, 2)
        with pytest.raises(ValueError):
            form_coeffs(4, 2, {(1, 1): 1.0})


class TestInterior:
    def test_basis_case(self):
        out = interior(np.eye(8)[0], basis(8, 1, 2), 8, 2)
        assert np.array_equal(out, basis(8, 2))

    def test_double_contraction_vanishes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = random_form(rng, 7, 3)
            v = rng.standard_normal(7)
            out = interior(v, interior(v, a, 7, 3), 7, 2)
            assert np.abs(out).max() < 1e-12

    def test_first_slot_contract(self):
        rng = np.random.default_rng(3)
        a = random_form(rng, 6, 3)
        v, w2, w3 = rng.standard_normal((3, 6))
        assert minors(np.stack([w2, w3])) @ interior(v, a, 6, 3) == pytest.approx(
            minors(np.stack([v, w2, w3])) @ a, abs=1e-12)

    def test_adjoint_of_wedge(self):
        # <v _| a, b> = <a, v^flat ^ b> for the Euclidean metric
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = random_form(rng, 7, 3)
            b = random_form(rng, 7, 2)
            v = rng.standard_normal(7)
            assert abs(interior(v, a, 7, 3) @ b - a @ wedge(v, b, 7, 1, 2)) < 1e-12

    def test_degree_zero_error(self):
        with pytest.raises(DimensionError):
            interior(np.zeros(7), np.ones(1), 7, 0)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_leibniz_over_wedge(self, n):
        # v _| (a ^ b) = (v _| a) ^ b + (-1)^deg(a) a ^ (v _| b)
        rng = np.random.default_rng(40 + n)
        for ka in range(1, n):
            for kb in range(1, n - ka + 1):
                a, b = random_form(rng, n, ka), random_form(rng, n, kb)
                v = rng.standard_normal(n)
                lhs = interior(v, wedge(a, b, n, ka, kb), n, ka + kb)
                rhs = (wedge(interior(v, a, n, ka), b, n, ka - 1, kb)
                       + (-1.0) ** ka * wedge(a, interior(v, b, n, kb), n, ka, kb - 1))
                assert np.abs(lhs - rhs).max() < 1e-11, (ka, kb)

    def test_stacked_rows_match_per_row(self):
        rng = np.random.default_rng(41)
        v = rng.standard_normal((2, 3, 8))
        a = rng.standard_normal((2, 3, 56))
        out = interior(v, a, 8, 3)
        assert out.shape == (2, 3, 28)
        for i, j in itertools.product(range(2), range(3)):
            assert np.abs(out[i, j] - interior(v[i, j], a[i, j], 8, 3)).max() < 1e-13


class TestEvaluate:
    """A form's value on k vectors is minors(vectors) @ coeffs."""

    def test_basis(self):
        assert minors(np.eye(4)[:2]) @ basis(4, 1, 2) == 1.0

    def test_alternation(self):
        rng = np.random.default_rng(5)
        a = random_form(rng, 7, 3)
        v, w = rng.standard_normal((2, 7))
        assert abs(minors(np.stack([v, v, w])) @ a) < 1e-12

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 9)
                                     for k in range(1, 5) if k <= n])
    def test_against_permutation_sum(self, n, k):
        # exhaustive over the supported degrees: the permutation-sum oracle
        rng = np.random.default_rng(6)
        a = random_form(rng, n, k)
        vecs = rng.standard_normal((k, n))
        assert minors(vecs) @ a == pytest.approx(
            brute_force_evaluate(a, n, k, vecs), rel=1e-12, abs=1e-12)

    def test_batched_minors(self):
        rng = np.random.default_rng(7)
        a = random_form(rng, 8, 4)
        rows = rng.standard_normal((9, 4, 8))
        want = [brute_force_evaluate(a, 8, 4, r) for r in rows]
        assert np.allclose(minors(rows) @ a, want, rtol=0, atol=1e-12)

    def test_tensor_round_trip(self):
        rng = np.random.default_rng(60)
        a = random_form(rng, 8, 4)
        assert np.array_equal(from_tensor(to_tensor(a, 8, 4)), a)
        stacked = rng.standard_normal((2, 3, 35))
        t = to_tensor(stacked, 7, 3)
        assert t.shape == (2, 3, 7, 7, 7)
        assert np.array_equal(t[1, 2], to_tensor(stacked[1, 2], 7, 3))
        # the tensor evaluates like the row
        vecs = rng.standard_normal((3, 7))
        assert np.einsum("ijk,i,j,k->", t[0, 0], *vecs) == pytest.approx(
            minors(vecs) @ stacked[0, 0], rel=1e-12)


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
        assert np.array_equal(hodge_star(basis(7, 1, 2, 3), 7, 3), basis(7, 4, 5, 6, 7))

    def test_involution_middle_degree(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_form(rng, 8, 4)
            assert np.allclose(hodge_star(hodge_star(a, 8, 4), 8, 4), a)

    def test_involution_sign(self):
        rng = np.random.default_rng(8)
        for n, k in [(7, 3), (7, 2), (6, 3), (8, 3)]:
            a = random_form(rng, n, k)
            ss = hodge_star(hodge_star(a, n, k), n, n - k)
            assert np.allclose(ss, (-1.0) ** (k * (n - k)) * a)

    def test_isometry(self):
        rng = np.random.default_rng(9)
        for n, k in [(7, 3), (8, 4), (6, 1)]:
            a, b = random_form(rng, n, k), random_form(rng, n, k)
            assert hodge_star(a, n, k) @ hodge_star(b, n, k) == pytest.approx(a @ b, rel=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 6, 7])
    def test_gl_covariance(self, n):
        # the Euclidean star intertwines pullbacks: star(A^* a) = det(A) (A^-T)^* star(a)
        # for every invertible A, orientation-reversing ones included
        def pullback(a, k, mat):
            t = to_tensor(a, n, k)
            for _ in range(k):
                t = np.tensordot(t, mat, axes=([0], [0]))
            return from_tensor(t) if k else a

        rng = np.random.default_rng(50 + n)
        for trial in range(2):
            mat = rng.standard_normal((n, n)) + 2 * np.eye(n)
            if trial % 2:
                mat[0] *= -1  # an orientation-reversing map
            det = np.linalg.det(mat)
            for k in range(n + 1):
                a = random_form(rng, n, k)
                lhs = hodge_star(pullback(a, k, mat), n, k)
                rhs = det * pullback(hodge_star(a, n, k), n - k, np.linalg.inv(mat).T)
                scale = max(1.0, np.abs(rhs).max())
                assert np.abs(lhs - rhs).max() < 1e-9 * scale, (k, trial)

    def test_defining_property(self):
        # a ^ star(a) = <a, a> vol
        rng = np.random.default_rng(10)
        a = random_form(rng, 6, 2)
        assert hodge_star(np.ones(1), 6, 0) == pytest.approx(np.ones(1))
        lhs = wedge(a, hodge_star(a, 6, 2), 6, 2, 4)[0]
        assert lhs == pytest.approx(a @ a, rel=1e-12)


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
