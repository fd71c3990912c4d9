import math

import numpy as np
import pytest

from caliblab.cli import _linear_map_patch, random_triple
from caliblab.exterior import DegenerateInputError, orthonormal_frames
from caliblab.fields import SymTensorField, VectorField
from caliblab.submanifold import (
    Box,
    Patch,
    QuadratureRule,
    circle_patch,
    fd_derivative,
    flat_plane,
    graph_patch,
    jet_of_F,
    mean_curvature,
    normal_projector,
    sphere_patch,
    torus_patch,
    volume,
)
from caliblab.variation import ambient_family, analytic_first_variation


def pointwise(ev, jac):
    """Row formula from per-point position and Jacobian formulas, row by row."""
    return lambda xs: (np.array([ev(x) for x in xs]), np.array([jac(x) for x in xs]))


def one_row(method, x):
    """A stacked patch method at one parameter point: one row in, one row out."""
    return method(np.asarray(x, float)[None])[0]


def geometry(patch, xs):
    """Normal projectors and mean curvature vectors at parameter rows xs."""
    jac = patch.jacobians(xs)
    frames = orthonormal_frames(np.swapaxes(jac, -1, -2))[0]
    return normal_projector(frames), mean_curvature(frames, jac, patch.hessians(xs))


class TestQuadrature:
    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_polynomial_exactness(self, order):
        rule = QuadratureRule(Box.unit(1), order)
        for deg in range(2 * order):
            got = rule.integrate(rule.nodes[:, 0] ** deg)
            assert got == pytest.approx(1.0 / (deg + 1), rel=1e-13)

    def test_tensorized_2d(self):
        rule = QuadratureRule(Box.make([0, -1], [2, 1]), 5)
        got = rule.integrate(rule.nodes[:, 0] ** 3 * rule.nodes[:, 1] ** 2)
        assert got == pytest.approx(4 * (2.0 / 3.0), rel=1e-12)

    def test_golub_welsch_matches_leggauss(self):
        from caliblab.submanifold import gauss_legendre

        for order in range(1, 65):
            nodes, weights = gauss_legendre(order)
            want_nodes, want_weights = np.polynomial.legendre.leggauss(order)
            assert np.abs(nodes - want_nodes).max() <= 1e-14, order
            assert np.abs(weights - want_weights).max() <= 1e-14, order
            assert not nodes.flags.writeable and not weights.flags.writeable


ROW_FORMULAS = [
    (graph_patch((1, 2), 4, [(3, 0.1, (1, -1), 0.3), (4, 0.05, (2, 1), 1.0)], "g"),
     np.array([0.37, 0.61])),
    (sphere_patch(1.2), np.array([1.1, 2.3])),
    (torus_patch(), np.array([0.8, 2.5])),
    (circle_patch(1.5), np.array([0.9])),
    (flat_plane((2, 4, 5), 6), np.array([0.3, 0.55, 0.7])),
    (_linear_map_patch("lin", 5, np.arange(10.0).reshape(5, 2) / 7, offset=np.ones(5)),
     np.array([0.4, 0.75])),
    (random_triple(np.random.default_rng(4)).patch, np.array([0.62, 0.28])),
]


class TestPatchCatalog:
    @pytest.mark.parametrize("patch,x", ROW_FORMULAS)
    def test_derivative_consistency(self, patch, x):
        # each row formula's Jacobian (the catalog's and the CLI maps') against
        # central differences of its own positions
        h = 1e-6
        jac_fd = np.zeros((patch.n, patch.k))
        for a in range(patch.k):
            e = np.zeros(patch.k)
            e[a] = h
            jac_fd[:, a] = (one_row(patch.positions, x + e)
                            - one_row(patch.positions, x - e)) / (2 * h)
        assert np.abs(jac_fd - one_row(patch.jacobians, x)).max() < 1e-8
        # a block of rows in one call, against one-row calls and central differences;
        # an affine patch gives its single Jacobian once
        xs = x + 0.07 * np.arange(-2, 3)[:, None]
        pos, jacs = patch.rows(xs)
        assert pos.shape == (5, patch.n)
        assert jacs.shape in ((5, patch.n, patch.k), (1, patch.n, patch.k))
        jacs = np.broadcast_to(jacs, (5, patch.n, patch.k))
        assert np.abs(pos - [one_row(patch.positions, y) for y in xs]).max() < 1e-14
        assert np.abs(jacs - [one_row(patch.jacobians, y) for y in xs]).max() < 1e-14
        for a in range(patch.k):
            e = h * np.eye(patch.k)[a]
            col_fd = (patch.positions(xs + e) - patch.positions(xs - e)) / (2 * h)
            assert np.abs(col_fd - jacs[:, :, a]).max() < 1e-8
        if patch._hess is None:
            return
        h2 = 1e-4
        for a in range(patch.k):
            e = np.zeros(patch.k)
            e[a] = h2
            hess_fd = (one_row(patch.jacobians, x + e)
                       - one_row(patch.jacobians, x - e)) / (2 * h2)
            assert np.abs(hess_fd - one_row(patch.hessians, x)[:, :, a]).max() < 1e-6
        hess = patch.hessians(xs)
        assert hess.shape == (5, patch.n, patch.k, patch.k)
        assert np.abs(hess - [one_row(patch.hessians, y) for y in xs]).max() < 1e-14
        for a in range(patch.k):
            e2 = h2 * np.eye(patch.k)[a]
            hess_fd = np.broadcast_to(
                patch.jacobians(xs + e2) - patch.jacobians(xs - e2), jacs.shape) / (2 * h2)
            # the O(h2^2) truncation scales with the third derivatives
            assert np.abs(hess_fd - hess[..., a]).max() < 1e-6 * max(1.0, np.abs(hess).max())

    def test_hessians_need_a_formula(self):
        patch = random_triple(np.random.default_rng(4)).patch
        assert patch._hess is None
        with pytest.raises(ValueError, match="no Hessian formula"):
            patch.hessians(np.full((3, 2), 0.5))


class TestInducedMetricAndVolume:
    def test_graph_jacobian_oracle(self):
        # u(x) = (x1, x2, f) with f = 0.3 x1^2 x2: g = J^T J = I + grad(f) grad(f)^T,
        # so sqrt(det g) = sqrt(1 + |grad(f)|^2)
        def ev(x):
            return np.array([x[0], x[1], 0.3 * x[0] ** 2 * x[1]])

        def jac(x):
            return np.array([[1.0, 0.0], [0.0, 1.0],
                             [0.6 * x[0] * x[1], 0.3 * x[0] ** 2]])

        p = Patch("poly-graph", 2, 3, Box.unit(2), False, pointwise(ev, jac))
        x = np.array([0.4, 0.8])
        grad = np.array([0.6 * x[0] * x[1], 0.3 * x[0] ** 2])
        j = one_row(p.jacobians, x)
        assert np.abs(j.T @ j - (np.eye(2) + np.outer(grad, grad))).max() < 1e-14
        rule = QuadratureRule(p.box, 6)
        xs = rule.nodes
        want = rule.integrate(np.sqrt(1 + (0.6 * xs[:, 0] * xs[:, 1]) ** 2
                                      + (0.3 * xs[:, 0] ** 2) ** 2))
        assert volume(p, None, rule) == pytest.approx(want, rel=1e-14)

    def test_circle_length(self):
        p = circle_patch(2.0)
        assert volume(p, None, QuadratureRule(p.box, 3)) == pytest.approx(4 * math.pi, rel=1e-14)

    def test_volume_out_of_domain(self):
        p = flat_plane((1, 2), 4)
        with pytest.raises(ValueError, match="outside the patch domain"):
            volume(p, None, QuadratureRule(Box.make([0, 0], [1.5, 1]), 2))

    def test_unit_square_volume(self):
        p = flat_plane((1, 3), 6)
        rule = QuadratureRule(p.box, 4)
        assert volume(p, None, rule) == pytest.approx(1.0, abs=1e-14)

    def test_sphere_area(self):
        for r in (1.0, 1.7):
            p = sphere_patch(r)
            rule = QuadratureRule(p.box, 12)
            assert volume(p, None, rule) == pytest.approx(4 * math.pi * r * r, rel=1e-9)

    def test_volume_scaling(self):
        p = flat_plane((1, 2, 3), 7)
        rule = QuadratureRule(p.box, 3)
        t = 0.4
        scaled = volume(p, lambda y: math.exp(t) * np.eye(7), rule)
        assert scaled == pytest.approx(math.exp(3 * t / 2), rel=1e-12)

    def test_volume_monotone_under_domination(self):
        p = sphere_patch(1.0)
        rule = QuadratureRule(p.box, 6)
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((3, 3))
        bump = raw @ raw.T + 0.1 * np.eye(3)
        small = volume(p, None, rule)
        big = volume(p, lambda y: np.eye(3) + bump, rule)
        assert big > small

    def test_degenerate_metric_raises(self):
        p = flat_plane((1, 2), 4)
        rule = QuadratureRule(p.box, 2)
        with pytest.raises(DegenerateInputError):
            volume(p, lambda y: np.diag([1.0, -1.0, 1.0, 1.0]), rule)

    def test_degenerate_metric_names_first_bad_node(self):
        # 900 nodes in R^8 span two node blocks; the first bad node lies in the second
        import re

        from caliblab.structures import _blocks

        p = graph_patch((1, 2), 8, [(5, 0.1, (1, 1), 0.3)], "g8")
        rule = QuadratureRule(p.box, 30)
        bad = rule.nodes[:, 0] > 0.7

        def gbar(ys):
            metrics = np.repeat(np.eye(8)[None], len(ys), axis=0)
            metrics[ys[:, 0] > 0.7, 0, 0] = -1.0
            return metrics

        first = rule.nodes[np.argmax(bad)]
        assert np.argmax(bad) >= next(_blocks(len(rule.nodes), 8 * 8)).stop
        with pytest.raises(DegenerateInputError, match=re.escape(str(first))):
            volume(p, gbar, rule)

    def test_volume_blocks_bound_memory(self):
        # a stacked metric field over all 10^4 nodes at once would hold (10^4, 8, 8)
        # metrics, 5 MB, and its mode table another (10^4, 64)
        import tracemalloc

        rng = np.random.default_rng(5)
        p = graph_patch((1, 2), 8, [(5, 0.1, (1, 1), 0.3)], "g8")
        field = SymTensorField.random(8, rng, amplitude=0.1)

        def gbar(ys):
            return 4 * np.eye(8) + field.value(ys)

        rule = QuadratureRule(p.box, 100)
        want = volume(p, gbar, QuadratureRule(p.box, 20))
        tracemalloc.start()
        try:
            got = volume(p, gbar, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak
        assert got == pytest.approx(want, rel=1e-9)


class TestJetOfF:
    def test_flat_plane_jet(self):
        p = flat_plane((1, 2), 4)
        jet = jet_of_F(p, [0.3, 0.4])
        assert jet.value == 0.0
        assert np.abs(jet.gradient).max() == 0.0
        assert np.allclose(jet.hessian, np.diag([0, 0, 1, 1]))
        # tangent vectors are annihilated, normal vectors returned
        assert np.allclose(jet.hessian @ np.array([1.0, 0, 0, 0]), 0)
        nu = np.array([0.0, 0, 1, 0])
        assert np.allclose(jet.hessian @ nu, nu)

    def test_flat_offpatch_values(self):
        p = flat_plane((1, 2), 4)
        jet = jet_of_F(p, [0.3, 0.4])
        base = one_row(p.positions, [0.3, 0.4])
        for s in (0.05, 0.2):
            y = base + s * np.array([0.0, 0, 1, 0])
            assert jet.evaluate(y) == pytest.approx(0.5 * s * s, abs=1e-12)
        # numeric gradient at an off-patch point points along s nu
        y = base + 0.2 * np.array([0.0, 0, 1, 0])
        h = 1e-6
        grad = np.array([
            (jet.evaluate(y + h * np.eye(4)[i]) - jet.evaluate(y - h * np.eye(4)[i])) / (2 * h)
            for i in range(4)])
        assert np.allclose(grad, 0.2 * np.array([0, 0, 1, 0]), atol=1e-9)

    def test_sphere_jet(self):
        p = sphere_patch(1.3)
        x = np.array([1.1, 2.3])
        jet = jet_of_F(p, x)
        assert np.allclose(jet.hessian, geometry(p, x[None])[0][0])
        y = one_row(p.positions, x) * 1.05
        assert jet.evaluate(y) == pytest.approx(0.5 * (0.05 * 1.3) ** 2, abs=1e-12)

    def test_numeric_jet_matches_projector(self):
        # criterion-style check: second differences of F reproduce the projector
        for patch, x in [
            (flat_plane((1, 2, 3), 7), np.array([0.3, 0.5, 0.7])),
            (graph_patch((1, 2), 4, [(3, 0.08, (1, 1), 0.2)], "g4"), np.array([0.4, 0.6])),
        ]:
            jet = jet_of_F(patch, x)
            y0 = one_row(patch.positions, x)
            h = 3e-4
            n = patch.n
            hess = np.zeros((n, n))
            for i in range(n):
                for j in range(i, n):
                    yy = [y0 + h * np.eye(n)[i] + h * np.eye(n)[j],
                          y0 + h * np.eye(n)[i] - h * np.eye(n)[j],
                          y0 - h * np.eye(n)[i] + h * np.eye(n)[j],
                          y0 - h * np.eye(n)[i] - h * np.eye(n)[j]]
                    val = (jet.evaluate(yy[0]) - jet.evaluate(yy[1])
                           - jet.evaluate(yy[2]) + jet.evaluate(yy[3])) / (4 * h * h)
                    hess[i, j] = hess[j, i] = val
            assert np.abs(hess - jet.hessian).max() < 1e-6


class TestMeanCurvature:
    def test_flat_zero(self):
        p = flat_plane((1, 2), 4)
        assert np.abs(geometry(p, np.array([[0.5, 0.5]]))[1]).max() == 0.0

    def test_circle(self):
        p = circle_patch(2.5)
        x = np.array([0.9])
        h = geometry(p, x[None])[1][0]
        assert np.linalg.norm(h) == pytest.approx(1 / 2.5, abs=1e-11)
        assert h @ one_row(p.positions, x) < 0  # points inward

    def test_sphere_fd_oracle(self):
        # oracle: area variation of the dilated sphere gives |H| = 2/r
        r = 1.4
        p = sphere_patch(r)
        x = np.array([1.0, 2.0])
        h = geometry(p, x[None])[1][0]
        assert np.linalg.norm(h) == pytest.approx(2 / r, abs=1e-10)
        nu = one_row(p.positions, x) / np.linalg.norm(one_row(p.positions, x))

        def area_near(t):
            q = sphere_patch(r + t)
            rule = QuadratureRule(q.box, 6)
            return volume(q, None, rule)

        darea, _ = fd_derivative(area_near, 0.0, 1e-4)
        # d(4 pi r^2)/dr = 8 pi r = integral of <H, nu> over the sphere
        assert darea == pytest.approx((2 / r) * 4 * math.pi * r * r, rel=1e-6)
        assert h @ nu == pytest.approx(-2 / r, abs=1e-10)


class TestFdDerivative:
    def test_quadratic(self):
        val, _ = fd_derivative(lambda t: t * t, 0.0)
        assert abs(val) < 1e-12

    def test_exponential(self):
        val, err = fd_derivative(math.exp, 0.0)
        assert val == pytest.approx(1.0, abs=1e-10)
        assert err < 1e-8

    def test_scaling_volume_derivative(self):
        p = flat_plane((1, 2, 3), 7)
        rule = QuadratureRule(p.box, 3)

        def vol(t):
            return volume(p, lambda y: math.exp(t) * np.eye(7), rule)

        val, _ = fd_derivative(vol, 0.0)
        assert val == pytest.approx(3.0 / 2.0, abs=1e-9)

    def test_array_valued(self):
        val, _ = fd_derivative(lambda t: np.array([t * t, math.sin(t)]), 0.0)
        assert np.allclose(val, [0.0, 1.0], atol=1e-10)


class TestFirstVariationFormula:
    def test_random_ambient_families(self):
        # d/dt Vol(gbar_t) = (1/2) integral Tr_g h for gbar_t = I + tH + t^2 K
        rng = np.random.default_rng(3)
        patches = [flat_plane((1, 2), 4), sphere_patch(1.0),
                   graph_patch((1, 2), 4, [(4, 0.1, (1, 0), 0.5)], "g")]
        for patch in patches:
            rule = QuadratureRule(patch.box, 6)
            for _ in range(3):
                hf = SymTensorField.random(patch.n, rng, amplitude=0.4)
                kf = SymTensorField.random(patch.n, rng, amplitude=0.4)
                fam = ambient_family(hf, kf)
                analytic = analytic_first_variation(patch, fam, rule)

                def vol(t):
                    def gbar(y):
                        return np.eye(patch.n) + t * hf.value(y) + t * t * kf.value(y)
                    return volume(patch, gbar, rule)

                fd, _ = fd_derivative(vol, 0.0, 1e-4)
                assert fd == pytest.approx(analytic, abs=2e-8)


class TestClosestPoint:
    def test_converges_off_sphere(self):
        p = sphere_patch(1.0, full=False)
        jet = jet_of_F(p, [1.0, 1.0])
        y = one_row(p.positions, [1.3, 2.0]) * 1.2
        cp = jet.closest_point(y)
        assert np.linalg.norm(one_row(p.positions, cp) - y / 1.2) < 1e-9

    def test_failure_reported_with_residual(self):
        # beyond the curvature radius of a wavy graph the Gauss-Newton
        # iteration oscillates and must report its gradient residual
        p = graph_patch((1, 2), 3, [(3, 0.3, (3, 0), 0.0)], "wavy", closed=False)
        jet = jet_of_F(p, [0.5, 0.5])
        with pytest.raises(DegenerateInputError, match="residual"):
            jet.evaluate(np.array([0.5, 0.5, 8.0]))
