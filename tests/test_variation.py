import math
import tracemalloc

import numpy as np
import pytest

from caliblab.exterior import hodge_star, minors, orthonormal_frames, to_tensor
from caliblab.fields import FormField, FourierMode, UmBackground, VectorField
from caliblab.structures import TOL_CALIB, invariance_defect, standard_kit
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
    Check,
    analytic_first_variation,
    cayley_anomaly,
    chain_consistency,
    chain_trace,
    closed_form_trace,
    fd_first_variation,
    lie_family,
    minimal_comparison,
    passed,
    plane_catalog,
    scaling_family,
    test_variation_derivative,
    test_variation_family,
    theorem_A_experiment,
    theorem_B_defect,
    theorem_family,
)

G2 = standard_kit("associative")
COASSOC = standard_kit("coassociative")
SP7 = standard_kit("cayley")


def frames_at(patch, xs):
    """Orthonormal tangent frames at parameter rows xs (one for an affine patch)."""
    return orthonormal_frames(np.swapaxes(patch.jacobians(np.asarray(xs, float)), -1, -2))[0]


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
        fam = theorem_family("um", FormField(6, 1), UmBackground.flat(3), 1)
        p = flat_plane((1, 2), 6)
        assert np.abs(fam.h(p, np.array([[0.3, 0.3]]))[0]).max() == 0.0

    def test_um_h_J_invariant(self):
        rng = np.random.default_rng(0)
        bg = UmBackground.flat(3)
        fam = theorem_family("um", FormField.random_fourier(6, 1, rng), bg, 1)
        p = flat_plane((1, 2), 6)
        h = fam.h(p, np.array([[0.4, 0.9]]))[0]
        assert np.abs(bg.J.T @ h @ bg.J - h).max() < 1e-12

    def test_um_gbar_fd_matches_h(self):
        rng = np.random.default_rng(1)
        bg = UmBackground.flat(3)
        p = flat_plane((1, 2), 6)
        x = np.array([0.7, 0.2])
        for _ in range(5):
            fam = theorem_family("um", FormField.random_fourier(6, 1, rng), bg, 1)
            # the family starts at the background metric
            y = p.positions(x[None])[0]
            assert np.abs(fam.gbar_at(y, 0.0) - bg.metric(y)).max() < 1e-14
            fd, _ = fd_derivative(lambda t: fam.gbar_at(y, t), 0.0, 1e-4)
            assert np.abs(fd - fam.h(p, x[None])[0]).max() < 1e-8

    def test_assoc_gbar_fd_matches_h(self):
        rng = np.random.default_rng(2)
        p = flat_plane((1, 2, 3), 7)
        x = np.array([0.3, 0.6, 0.2])
        for _ in range(5):
            fam = theorem_family("associative", FormField.random_fourier(7, 2, rng))
            fd, _ = fd_derivative(lambda t: fam.gbar_at(p.positions(x[None])[0], t), 0.0, 1e-4)
            assert np.abs(fd - fam.h(p, x[None])[0]).max() < 1e-7

    def test_assoc_constant_phi_direction(self):
        # velocity d(beta) = phi is the scaling direction: h = (2/3) Id, the
        # same value the decomposition lemma produces
        from caliblab.decomposition import h_from_3form

        h = h_from_3form(G2.form)
        assert np.allclose(h, (2.0 / 3.0) * np.eye(7), atol=1e-13)

    def test_coassoc_constant_psi_direction(self):
        from caliblab.decomposition import h_from_4form

        h = h_from_4form(COASSOC.form)
        assert np.allclose(h, 0.5 * np.eye(7), atol=1e-13)

    def test_zero_generators_give_zero_velocity(self):
        p3 = flat_plane((1, 2, 3), 7)
        p47 = flat_plane((4, 5, 6, 7), 7)
        p8 = flat_plane((1, 2, 3, 4), 8)
        x3, x4 = np.full(3, 0.3), np.full(4, 0.3)
        assert np.abs(theorem_family("associative", FormField(7, 2))
                      .h(p3, x3[None])[0]).max() == 0.0
        assert np.abs(theorem_family("coassociative", FormField(7, 3))
                      .h(p47, x4[None])[0]).max() == 0.0
        assert np.abs(theorem_family("cayley", FormField(8, 3))
                      .h(p8, x4[None])[0]).max() == 0.0

    def test_coassoc_trace_relation_propagates(self):
        rng = np.random.default_rng(3)
        from caliblab.decomposition import hat_rho

        p = flat_plane((4, 5, 6, 7), 7)
        x = np.array([0.2, 0.4, 0.6, 0.8])
        for _ in range(5):
            gen = FormField.random_fourier(7, 3, rng)
            fam = theorem_family("coassociative", gen)
            h = fam.h(p, x[None])[0]
            rho = gen.d_coeffs(p.positions(x[None])[0])
            hat = hat_rho(rho)
            assert 2 * np.trace(hat) == pytest.approx(96 * np.trace(h), abs=1e-9)

    def test_cayley_h_equals_h0_of_projection(self):
        rng = np.random.default_rng(4)
        from caliblab.decomposition import h_sp7

        p = flat_plane((1, 2, 3, 4), 8)
        x = np.array([0.3, 0.1, 0.8, 0.5])
        gen = FormField.random_fourier(8, 3, rng)
        fam = theorem_family("cayley", gen)
        sigma = fam.forms(p, x[None], fam.d(p, x[None]))[1][0]
        assert np.abs(h_sp7(sigma) - fam.h(p, x[None])[0]).max() < 1e-10

    def test_gbar_at_stacked_points(self):
        # every nonlinear evaluator maps stacked points (..., n) to (..., n, n),
        # row for row the metric at each point
        from caliblab.fields import SymTensorField
        from caliblab.variation import ambient_family

        rng = np.random.default_rng(20)
        bg = UmBackground.wavy(3, rng, eps=0.05)
        families = {
            6: [theorem_family("um", FormField.random_fourier(6, 1, rng), bg, 1),
                scaling_family(6),
                ambient_family(SymTensorField.random(6, rng), SymTensorField.random(6, rng))],
            7: [theorem_family("associative", FormField.random_fourier(7, 2, rng))],
        }
        for n, fams in families.items():
            ys = rng.standard_normal((2, 3, n))
            for fam in fams:
                got = fam.gbar_at(ys, 1e-3)
                assert got.shape == (2, 3, n, n)
                want = [[fam.gbar_at(y, 1e-3) for y in row] for row in ys]
                assert np.allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_fd_first_variation_curved_background(self):
        # the FD oracle on a curved patch over a d-omega != 0 background: the
        # ambient metric varies from node to node
        rng = np.random.default_rng(21)
        bg = UmBackground.wavy(3, rng, eps=0.05)
        p = graph_patch((1, 2), 6, [(3, 0.15, (1, 1), 0.4)], "graph-um", closed=False)
        rule = QuadratureRule(p.box, 6)
        fam = theorem_family("um", FormField.random_fourier(6, 1, rng), bg, 1)
        fv = analytic_first_variation(p, fam, rule)
        fd, _ = fd_first_variation(p, fam, rule)
        assert abs(fv) > 1e-3
        assert fd == pytest.approx(fv, abs=1e-8)

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
        d = test_variation_derivative("um", frames_at(p, x[None]))[0]
        kit = standard_kit("um", m=3, k=1)
        frame = np.eye(6)[:2]
        for f in frame:
            assert to_tensor(d, 6, 2)[0] is not None
            assert minors(np.stack([f, kit.tensor.T @ f])) @ d == pytest.approx(0.0, abs=1e-14)

    def test_assoc_plane_trace_expressions_vanish(self):
        # on an associative plane both trace expressions are zero
        p = flat_plane((1, 2, 3), 7)
        x = np.array([0.5, 0.5, 0.5])
        assert abs(chain_trace("associative", frames_at(p, x[None]), 0)[0]) < 1e-14
        assert abs(closed_form_trace("associative", frames_at(p, x[None]), 0)[0]) < 1e-14

    def test_cayley_star_restriction_vanishes(self):
        for patch in (flat_plane((1, 2, 3, 4), 8), CURVED["cayley"]):
            x = patch.box.lo + 0.37 * (patch.box.hi - patch.box.lo)
            frames = frames_at(patch, x[None])
            d = test_variation_derivative("cayley", frames, 0, 1)[0]
            assert abs(minors(frames[0]) @ hodge_star(d, 8, 4)) < 1e-10

    def test_non_tangent_selector_rejected(self):
        p = flat_plane((1, 2, 3), 7)
        with pytest.raises(ValueError):
            test_variation_derivative("associative", frames_at(p, [[0.5, 0.5, 0.5]]),
                                      V=np.array([0, 0, 0, 1.0, 0, 0, 0]))

    @pytest.mark.parametrize("selector", [
        lambda xs: np.eye(7)[0],                   # a function of the rows
        np.tile(np.eye(7)[0], (4, 1)),             # stacked (N, n) vectors
        np.eye(7)[0, :6],                          # a vector of the wrong length
        "e1",
        1.0,
        True,                                      # a bool, which numpy reads as a mask
        3,                                         # a frame row the 3-plane lacks
    ], ids=["callable", "stacked", "short", "str", "float", "bool", "row-3"])
    def test_selector_kind_rejected(self, selector):
        # a selector is a frame-row index or a fixed tangent vector (n,)
        p = flat_plane((1, 2, 3), 7)
        rule = QuadratureRule(p.box, 2)
        with pytest.raises(ValueError, match="frame-row index"):
            chain_trace("associative", frames_at(p, [[0.5, 0.5, 0.5]]), V=selector)
        with pytest.raises(ValueError, match="frame-row index"):
            test_variation_family("associative", V=selector).h(p, rule.nodes)

    def test_numpy_integer_selector_is_a_row(self):
        frames = frames_at(flat_plane((1, 2, 4), 7), [[0.5, 0.5, 0.5]])
        assert chain_trace("associative", frames, np.int64(0)) == chain_trace("associative",
                                                                              frames, 0)


def _closed_form_over_every_row(case, frames, selectors):
    """scale * sum_f |pi_N cross(S, f)|^2 over every frame row f, the rows in
    S included: the sum closed_form_trace must reproduce."""
    from caliblab.submanifold import normal_projector
    from caliblab.variation import CLOSED_FORM_SCALE

    k, n = frames.shape[-2:]
    kit = standard_kit(case, m=n // 2, k=max(1, k // 2))
    S = [frames[..., s, :] if isinstance(s, int) else s for s in selectors]
    crossed = kit.cross(*(v[..., None, :] for v in S), frames)
    normal = crossed @ normal_projector(frames)
    return CLOSED_FORM_SCALE[case] * np.sum(normal * normal, axis=(-2, -1))


class TestChainConsistency:
    # (case, k, n) of the closed-form checks on random frames
    SHAPES = {"um-1": ("um", 2, 6), "um-2": ("um", 4, 6), "associative": ("associative", 3, 7),
              "coassociative": ("coassociative", 4, 7), "cayley": ("cayley", 4, 8)}

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_closed_form_skips_rows_in_selection(self, name, monkeypatch):
        from caliblab import structures
        from caliblab.variation import _canonical_selections

        case, k, n = self.SHAPES[name]
        arity = standard_kit(case, m=n // 2, k=max(1, k // 2)).arity
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.standard_normal((2, 3, n, k)))[0]
        frames = np.swapaxes(q, -1, -2)  # (2, 3, k, n), orthonormal rows
        # frames that all hold e_1 and e_2, rotated so neither is a frame row
        raw = rng.standard_normal((2, 3, k, n))
        raw[..., :2, :] = np.eye(n)[:2]
        spanned = np.swapaxes(np.linalg.qr(np.swapaxes(raw, -1, -2))[0], -1, -2)
        spanned = np.linalg.qr(rng.standard_normal((2, 3, k, k)))[0] @ spanned
        vectors = tuple(np.eye(n)[: arity - 1])

        counted = []

        def counting(fn):
            def wrapped(*args):
                out = fn(*args)
                counted.append(int(np.prod(out.shape[:-1])))
                return out
            return wrapped

        monkeypatch.setattr(structures.Kit, "cross", counting(structures.Kit.cross))
        cases = [(frames, sel, k - arity + 1) for sel in _canonical_selections(case, k, n)]
        if arity > 1:
            cases.append((spanned, vectors, k))
        for f, sel, per_frame in cases:
            counted.clear()
            got = closed_form_trace(case, f, *sel)
            assert counted == [got.size * per_frame]
            want = _closed_form_over_every_row(case, f, sel)
            assert np.abs(want).min() > 1e-3
            assert np.allclose(got, want, rtol=1e-12, atol=0)

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

    @pytest.mark.parametrize("case,name", [("associative", "graph-assoc-r7"),
                                           ("cayley", "graph-cayley-r8")])
    def test_batched_matches_per_point(self, case, name):
        # the node-blocked paths against the stacked kernels on one frame at a time
        from caliblab.cli import make_patch
        from caliblab.variation import _canonical_selections, test_variation_family

        patch = make_patch(name)
        rule = QuadratureRule(patch.box, 3)
        selections = _canonical_selections(case, patch.k, patch.n)
        frames = [frames_at(patch, x[None]) for x in rule.nodes]
        gaps = [abs(chain_trace(case, f, *sel)[0] - closed_form_trace(case, f, *sel)[0])
                for f in frames for sel in selections]
        # both maxima are round-off of one identity, so they agree to round-off
        assert chain_consistency(case, patch, rule) == pytest.approx(max(gaps), abs=1e-14)
        assert max(gaps) < 1e-12
        # the blocked velocity integrates to the one-frame chain traces
        density = [math.sqrt(np.linalg.det(j.T @ j))
                   for j in (patch.jacobians(x[None])[0] for x in rule.nodes)]
        for sel in selections:
            per_point = [chain_trace(case, f, *sel)[0] for f in frames]
            want = 0.5 * rule.integrate(np.array(per_point) * density)
            fam = test_variation_family(case, *sel)
            assert analytic_first_variation(patch, fam, rule) == pytest.approx(want, rel=1e-12)
        if case != "cayley":
            return
        out = cayley_anomaly(patch, rule)
        dev = [abs(0.5 * (chain_trace(case, f, keep_omega4_1=True)[0]
                          - chain_trace(case, f)[0]) - 2.0 / 7.0) for f in frames]
        star = [abs(minors(f[0]) @ hodge_star(test_variation_derivative(case, f)[0], 8, 4))
                for f in frames]
        assert out["trace_discrepancy_err"] == pytest.approx(max(dev), abs=1e-14)
        assert out["star_restriction_max"] == pytest.approx(max(star), abs=1e-14)

    GRAPH = {"um": "graph-um-r6", "associative": "graph-assoc-r7",
             "coassociative": "graph-coassoc-r7", "cayley": "graph-cayley-r8"}

    @staticmethod
    def assert_stacked_is_selection_loop(case, frames, selections):
        """The stacked traces against chain_trace and closed_form_trace one
        selection at a time; returns the loop's max gap over the selections."""
        from caliblab.variation import _chain_traces, _closed_form_traces

        chain = _chain_traces(case, frames, selections)
        closed = _closed_form_traces(case, frames, selections)
        gaps = []
        for i, sel in enumerate(selections):
            one_chain = chain_trace(case, frames, *sel)
            one_closed = closed_form_trace(case, frames, *sel)
            assert np.abs(chain[..., i] - one_chain).max() <= 1e-14
            assert np.abs(closed[..., i] - one_closed).max() <= 1e-14
            gaps.append(np.abs(one_chain - one_closed).max())
        return max(gaps)

    @pytest.mark.parametrize("case", ["um", "associative", "coassociative", "cayley"])
    def test_stacked_matches_selection_loop(self, case):
        from caliblab.cli import make_patch
        from caliblab.variation import _canonical_selections

        good, bad = plane_catalog(case)
        for patch in (make_patch(self.GRAPH[case]), good[0], bad[0]):
            rule = QuadratureRule(patch.box, 3)
            selections = _canonical_selections(case, patch.k, patch.n)
            frames = frames_at(patch, rule.nodes)
            looped = self.assert_stacked_is_selection_loop(case, frames, selections)
            assert chain_consistency(case, patch, rule) == pytest.approx(looped, abs=1e-14)

    @pytest.mark.parametrize("case", ["associative", "coassociative", "cayley"])
    def test_stacked_fixed_vector_selections(self, case):
        # fixed tangent vectors (n,) of an axis plane, alone and beside frame rows
        good, bad = plane_catalog(case)
        for patch in (good[0], bad[0]):
            frames = frames_at(patch, patch.box.lo[None])
            f = frames[0]
            u, w = (f[0] + 2 * f[1]) / math.sqrt(5), (f[1] - f[-1]) / math.sqrt(2)
            if case == "associative":
                stacks = [[(u,), (w,)]]
            else:
                stacks = [[(u, w), (w, f[0])], [(u, 2), (w, 3)]]
            for selections in stacks:
                self.assert_stacked_is_selection_loop(case, frames, selections)
            if patch is bad[0]:  # the closed form is not trivially zero
                assert np.abs(closed_form_trace(case, frames, *stacks[0][0])).max() > 1e-3

    def test_chain_forms_one_derivative_per_block(self, monkeypatch):
        # every selection's derivative in one call a node block, not one a selection
        from caliblab import variation
        from caliblab.cli import make_patch
        from caliblab.structures import _blocks
        from caliblab.variation import _canonical_selections, _minors_floats

        patch = make_patch("graph-cayley-r8")
        rule = QuadratureRule(patch.box, 5)
        selections = _canonical_selections("cayley", patch.k, patch.n)
        blocks = len(list(_blocks(len(rule.nodes), len(selections) * _minors_floats(SP7))))
        assert len(selections) == 6 and blocks > 1
        widths = []
        derivative = variation._derivative

        def counted(kit, p_normal, S):
            widths.append(S[0].shape[-2])
            return derivative(kit, p_normal, S)

        monkeypatch.setattr(variation, "_derivative", counted)
        chain_consistency("cayley", patch, rule)
        assert widths == [len(selections)] * blocks

    def test_blocked_paths_bound_memory(self):
        # an unblocked defect over the 4096 nodes of order 8 peaks at about
        # 7.1 MB (its (4096, 4, 3, 8) gather alone takes 3.1 MB), the blocked
        # one at about 0.5 MB
        from caliblab.cli import make_patch

        patch = make_patch("graph-cayley-r8")
        runs = ((lambda r: theorem_B_defect("cayley", patch, r), 8),
                (lambda r: chain_consistency("cayley", patch, r), 6))
        for run, order in runs:
            run(QuadratureRule(patch.box, 2))  # build the lazy tables first
            rule = QuadratureRule(patch.box, order)
            tracemalloc.start()
            try:
                run(rule)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20

    def test_defect_is_twice_first_variation(self):
        # the central identity of the converse proofs: the first variation of
        # the test-variation family accounts for the defect integral, with the
        # case's sign, on random graphical patches
        sign = {"um": 1.0, "associative": -1.0, "coassociative": 1.0, "cayley": 1.0}
        from caliblab.variation import _canonical_selections, test_variation_family

        for case, patch in CURVED.items():
            rule = QuadratureRule(patch.box, 3)
            fv = 0.0
            for sel in _canonical_selections(case, patch.k, patch.n):
                args = dict(zip(("V", "W"), sel))
                fam = test_variation_family(case, **args)
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

    def test_defect_matches_calibration_value(self):
        # by the Harvey-Lawson equalities the defect integrand is
        # C (1 - mu(T_xM)^2) sqrt(det g); this route uses no cross product
        from caliblab.cli import make_patch

        um_k2 = graph_patch((1, 2, 3, 4), 6, [(5, 0.1, (1, 0, 1, 0), 0.3),
                                              (6, 0.07, (0, 1, 0, -1), 1.4)], "graph-um-k2-r6")
        for case, patch, weight in (("um", make_patch("graph-um-r6"), 2.0), ("um", um_k2, 2.0),
                                    ("associative", make_patch("graph-assoc-r7"), 6.0),
                                    ("coassociative", make_patch("graph-coassoc-r7"), 9.0),
                                    ("cayley", make_patch("graph-cayley-r8"), 6.0)):
            kit = standard_kit(case, m=patch.n // 2, k=patch.k // 2)
            for order in (4, 8):
                rule = QuadratureRule(patch.box, order)
                jac_t = np.swapaxes(patch.jacobians(rule.nodes), 1, 2)
                density = np.sqrt(np.linalg.det(jac_t @ np.swapaxes(jac_t, 1, 2)))
                mu = minors(jac_t) @ kit.mu / density
                want = rule.integrate(weight * (1.0 - mu**2) * density)
                assert want > 1e-3
                assert theorem_B_defect(case, patch, rule) == pytest.approx(want, rel=1e-12)

    def test_defect_matches_calibration_report(self):
        kit_of = {"um": standard_kit("um", m=3, k=1), "associative": G2,
                  "coassociative": COASSOC, "cayley": SP7}
        for case in ("associative", "coassociative", "cayley"):
            good, bad = plane_catalog(case)
            for patch in good:
                rows = np.eye(patch.n)[list(patch.axes)]
                assert invariance_defect(kit_of[case], rows) < TOL_CALIB
            for patch in bad:
                rows = np.eye(patch.n)[list(patch.axes)]
                assert invariance_defect(kit_of[case], rows) >= TOL_CALIB


# The checks a theorem verdict carries, by family: (case, k, background, keep the
# Cayley pure-trace part, calibrated plane, non-calibrated plane, generator arity,
# check names on a closed and on an open calibrated patch).  A non-calibrated
# patch carries only its positive defect.
ZERO_CHECKS = {"integrand_identity", "first_variation_zero", "stokes_zero"}
CHECK_TABLE = {
    "associative": ("associative", 1, None, False, (1, 2, 3), (1, 2, 4), 2,
                    ZERO_CHECKS, {"integrand_identity"}),
    "coassociative": ("coassociative", 1, None, False, (4, 5, 6, 7), (1, 2, 3, 4), 3,
                      ZERO_CHECKS, {"integrand_identity"}),
    "cayley": ("cayley", 1, None, False, (1, 2, 3, 4), (1, 2, 3, 5), 3,
               {"integrand_identity", "raw_trace_identity", "condition_holds",
                "first_variation_zero", "star_route"},
               {"integrand_identity", "raw_trace_identity", "star_route"}),
    "cayley-keep": ("cayley", 1, None, True, (1, 2, 3, 4), (1, 2, 3, 5), 3,
                    {"integrand_identity", "raw_trace_identity"},
                    {"integrand_identity", "raw_trace_identity"}),
    "um-k1": ("um", 1, "flat", False, (1, 2), (1, 3), 1,
              ZERO_CHECKS, {"integrand_identity"}),
    "um-k2-closed-omega": ("um", 2, "flat", False, (1, 2, 3, 4), (1, 3, 5, 6), 1,
                           ZERO_CHECKS, {"integrand_identity"}),
    "um-k2-wavy": ("um", 2, "wavy", False, (1, 2, 3, 4), (1, 3, 5, 6), 1,
                   {"integrand_identity", "dw_route_matches"},
                   {"integrand_identity", "dw_route_matches"}),
}


@pytest.mark.parametrize("kind", ["closed", "open", "non-calibrated"])
@pytest.mark.parametrize("family_id", list(CHECK_TABLE))
def test_theorem_check_table(family_id, kind):
    case, k, bg_kind, keep, good, bad, arity, closed_names, open_names = CHECK_TABLE[family_id]
    rng = np.random.default_rng(20)
    n = {"um": 6, "associative": 7, "coassociative": 7, "cayley": 8}[case]
    bg = None if bg_kind is None else UmBackground.flat(3)
    if bg_kind == "wavy":
        bg = UmBackground.wavy(3, rng, eps=0.01, frequency_axes=good)
    fam = theorem_family(case, FormField.random_fourier(n, arity, rng), bg, k, keep)
    patch = flat_plane(bad if kind == "non-calibrated" else good, n, closed=kind != "open")
    v = theorem_A_experiment(patch, fam, QuadratureRule(patch.box, 2))
    want = {"closed": closed_names, "open": open_names,
            "non-calibrated": {"defect_integral"}}[kind]
    assert v.calibrated == (kind != "non-calibrated")
    assert {c.name for c in v.checks} == want
    assert len(v.checks) == len(want)


class TestPassed:
    @pytest.mark.parametrize("value, below, at_least", [
        (0.5, True, False), (1.0, False, True), (1.5, False, True),
        (np.float64(0.5), True, False), (np.float64(1.0), False, True),
        (np.int64(0), True, False), (np.int64(1), False, True), (np.int64(2), False, True),
    ])
    def test_both_directions_at_tolerance_one(self, value, below, at_least):
        # a check is strict below its tolerance; an at_least check holds from it on
        assert passed([Check("x", value, 1.0)]) is below
        assert passed([Check("x", value, 1.0, at_least=True)]) is at_least

    @pytest.mark.parametrize("value", [math.nan, np.float64("nan")])
    def test_nan_fails_both_directions(self, value):
        assert not passed([Check("x", value, 1.0)])
        assert not passed([Check("x", value, 1.0, at_least=True)])

    def test_every_check_must_hold(self):
        good, bad = Check("a", 0.0, 1.0), Check("b", 0.0, 1.0, at_least=True)
        assert passed([good, good]) and not passed([good, bad]) and not passed([bad, good])

    def test_no_checks_pass(self):
        # a record with no check passes silently; marking it vacuous is a ROADMAP item
        assert passed([]) is True


class TestTheoremA:
    def run_case(self, patch, fam, order=6):
        rule = QuadratureRule(patch.box, order)
        return theorem_A_experiment(patch, fam, rule)

    def test_associative(self):
        rng = np.random.default_rng(5)
        p = flat_plane((1, 2, 3), 7, name="t3-in-r7")
        for _ in range(3):
            fam = theorem_family("associative", FormField.random_fourier(7, 2, rng))
            v = self.run_case(p, fam, order=8)
            assert v.calibrated and v.all_pass
            assert abs(v.analytic_first_variation) < 1e-8
            assert v.identity_max_err < 1e-12

    def test_coassociative(self):
        rng = np.random.default_rng(6)
        p = flat_plane((4, 5, 6, 7), 7, name="t4-in-r7")
        for _ in range(3):
            fam = theorem_family("coassociative", FormField.random_fourier(7, 3, rng))
            v = self.run_case(p, fam, order=8)
            assert v.all_pass and abs(v.analytic_first_variation) < 1e-8

    def test_cayley(self):
        rng = np.random.default_rng(7)
        p = flat_plane((1, 2, 3, 4), 8, name="t4-in-r8")
        for _ in range(3):
            gen = FormField.random_fourier(8, 3, rng, frequency_axes=(1, 2, 3, 4))
            fam = theorem_family("cayley", gen)
            v = self.run_case(p, fam, order=8)
            assert v.all_pass
            assert abs(v.cayley_condition) < 1e-10
            assert v.cayley_raw_identity_err < 1e-10

    def test_cayley_condition_violation_detected(self):
        # a purely normal-frequency mode puts the family outside the allowed
        # class: the condition integral is nonzero and criticality fails by
        # exactly -condition/2
        gen = FormField(8, 3, modes=[
            FourierMode(np.ones(56), np.array([0, 0, 0, 0, 1.0, 0, 0, 0]), 0.3)])
        fam = theorem_family("cayley", gen)
        p = flat_plane((1, 2, 3, 4), 8)
        v = self.run_case(p, fam, order=6)
        assert abs(v.cayley_condition) > 1e-3
        assert v.analytic_first_variation == pytest.approx(
            -0.5 * v.cayley_condition, abs=1e-9)

    def test_cayley_open_patch_skips_zero_checks(self):
        # on a patch that is not closed the condition and first-variation
        # integrals keep their boundary terms: only the pointwise identities and
        # the star route are checks
        gen = FormField(8, 3, modes=[
            FourierMode(np.ones(56), np.array([0.3, 0.2, 0, 0, 0, 0, 0, 0]), 0.3)])
        fam = theorem_family("cayley", gen)
        p = flat_plane((1, 2, 3, 4), 8, closed=False)
        v = self.run_case(p, fam, order=6)
        assert v.calibrated and abs(v.analytic_first_variation) > 1e-2
        assert v.all_pass

    def test_um_k1_constant_even_with_torsion(self):
        rng = np.random.default_rng(8)
        bg = UmBackground.wavy(3, rng, eps=0.05, frequency_axes=(1, 2))
        p = flat_plane((1, 2), 6, name="t2-in-r6")
        for _ in range(3):
            fam = theorem_family("um", FormField.random_fourier(6, 1, rng), bg, 1)
            v = self.run_case(p, fam, order=8)
            assert v.calibrated and v.all_pass
            assert abs(v.analytic_first_variation) < 1e-8

    def test_um_k2_closed_omega(self):
        rng = np.random.default_rng(9)
        bg = UmBackground.flat(3)
        p = flat_plane((1, 2, 3, 4), 6, name="t4-in-r6")
        for _ in range(3):
            fam = theorem_family("um", FormField.random_fourier(6, 1, rng), bg, 2)
            v = self.run_case(p, fam, order=8)
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
            fam = theorem_family("um", gen, bg, 2)
            v = theorem_A_experiment(p, fam, rule)
            assert v.identity_max_err < 1e-12
            assert abs(v.analytic_first_variation - v.um_dw_route) < 1e-6
            found_nonzero = found_nonzero or abs(v.um_dw_route) > 1e-3
        assert found_nonzero

    def test_dw_route_matches_per_node_forms(self):
        # the blocked coefficient-row route against the per-node wedge chain;
        # at k = 3 the chain also wedges in omega once
        from caliblab.exterior import wedge
        from caliblab.variation import _um_dw_route

        rng = np.random.default_rng(12)
        for k, p in ((2, flat_plane((1, 2, 3, 4), 6, name="t4-in-r6")),
                     (3, flat_plane((1, 2, 3, 4, 5, 6), 8, name="plane-123456-r8"))):
            bg = UmBackground.wavy(p.n // 2, rng, eps=0.05, frequency_axes=range(1, 2 * k + 1))
            # modes resonant with the background waves keep the integral away from 0
            gen = FormField(p.n, 1, modes=[
                FourierMode(rng.standard_normal(p.n), freq, float(rng.uniform(0, 2 * math.pi)))
                for freq in bg.omega_field.freqs])
            rule = QuadratureRule(p.box, 3)
            vals = []
            for x in rule.nodes:
                (y,), (j,) = p.rows(x[None])
                form = wedge(gen.value_coeffs(y), bg.d_omega_coeffs(y), p.n, 1, 3)
                for jj in range(1, k - 1):
                    form = wedge(form, bg.omega_coeffs(y), p.n, 2 + 2 * jj, 2) * (1.0 / jj)
                vals.append(minors(j.T) @ form)
            ref = rule.integrate(np.array(vals))
            assert abs(ref) > 1e-3
            got = _um_dw_route(p, theorem_family("um", gen, bg, k), rule)
            assert got == pytest.approx(ref, rel=1e-12, abs=0)

    def test_fd_cross_checks(self):
        rng = np.random.default_rng(11)
        p = flat_plane((1, 2), 6, name="t2-in-r6")
        rule = QuadratureRule(p.box, 6)
        fam = theorem_family("um", FormField.random_fourier(6, 1, rng), UmBackground.flat(3), 1)
        fv = analytic_first_variation(p, fam, rule)
        fd, _ = fd_first_variation(p, fam, rule)
        assert fd == pytest.approx(fv, abs=1e-8)

        p3 = flat_plane((1, 2, 3), 7)
        rule3 = QuadratureRule(p3.box, 4)
        fam3 = theorem_family("associative", FormField.random_fourier(7, 2, rng))
        fv3 = analytic_first_variation(p3, fam3, rule3)
        fd3, _ = fd_first_variation(p3, fam3, rule3)
        assert fd3 == pytest.approx(fv3, abs=1e-7)

    def test_negatively_oriented_calibrated_planes(self):
        # phi(e1, e6, e7) = -1 and Phi(e1, e2, e7, e8) = -1: calibrated after an
        # orientation flip; the experiments must handle the sign in both paths
        rng = np.random.default_rng(18)
        p = flat_plane((1, 6, 7), 7, name="plane-167-r7")
        fam = theorem_family("associative", FormField.random_fourier(7, 2, rng))
        rule = QuadratureRule(p.box, 6)
        v = theorem_A_experiment(p, fam, rule)
        assert v.calibrated and v.plane_value == -1.0
        assert v.all_pass, v.checks

        p8 = flat_plane((1, 2, 7, 8), 8, name="plane-1278-r8")
        gen = FormField.random_fourier(8, 3, rng, frequency_axes=(1, 2, 7, 8))
        fam8 = theorem_family("cayley", gen)
        rule8 = QuadratureRule(p8.box, 6)
        v8 = theorem_A_experiment(p8, fam8, rule8)
        assert v8.calibrated and v8.plane_value == -1.0
        assert v8.all_pass, v8.checks
        assert v8.cayley_raw_identity_err < 1e-10

        # same plane through the generic path: a graph with no waves
        p8s = graph_patch((1, 2, 7, 8), 8, [], "slow-1278")
        v8s = theorem_A_experiment(p8s, fam8, QuadratureRule(p8s.box, 4))
        assert v8s.calibrated and v8s.plane_value == -1.0
        assert v8s.all_pass, v8s.checks
        assert v8s.cayley_raw_identity_err < 1e-10

    def test_non_calibrated_patch_demoted(self):
        rng = np.random.default_rng(12)
        p = flat_plane((1, 2, 4), 7)  # not associative
        fam = theorem_family("associative", FormField.random_fourier(7, 2, rng))
        v = self.run_case(p, fam, order=3)
        assert not v.calibrated
        assert v.checks == (Check("defect_integral", v.defect_integral, TOL_CALIB, at_least=True),)
        assert v.all_pass and v.defect_integral > 1.0

    def test_orientation_robustness(self):
        # swapping two parameter axes gives the same image with the opposite
        # orientation; the symmetric tensor rule maps onto itself under the swap
        rng = np.random.default_rng(13)
        patch = CURVED["associative"]
        swapped = graph_patch((2, 1, 3), 7,
                              [(4, 0.12, (0, 1, 1), 0.3), (6, 0.08, (1, 0, -1), 2.0)],
                              "graph-assoc-swapped")
        fam = theorem_family("associative", FormField.random_fourier(7, 2, rng))
        rule = QuadratureRule(patch.box, 3)
        a = theorem_A_experiment(patch, fam, rule)
        b = theorem_A_experiment(swapped, fam, rule)
        assert b.analytic_first_variation == pytest.approx(
            a.analytic_first_variation, abs=1e-10)
        assert b.defect_integral == pytest.approx(a.defect_integral, abs=1e-10)
        assert b.identity_max_err == pytest.approx(a.identity_max_err, abs=1e-10)

        # plane-213-r7, plane-123-r7 with its first two axes swapped, is calibrated
        # with the opposite sign and has the same first variation
        plane, flipped = flat_plane((1, 2, 3), 7), flat_plane((2, 1, 3), 7)
        rule = QuadratureRule(plane.box, 6)
        a = theorem_A_experiment(plane, fam, rule)
        b = theorem_A_experiment(flipped, fam, rule)
        assert a.plane_value == 1.0 and b.plane_value == -1.0
        assert a.all_pass and b.all_pass, (a.checks, b.checks)
        assert [c.name for c in b.checks] == [c.name for c in a.checks]
        assert b.analytic_first_variation == pytest.approx(
            a.analytic_first_variation, abs=1e-12)

    def test_flat_and_generic_paths_agree(self):
        # an axis plane broadcasts its one constant Jacobian over the nodes; its
        # twin, a graph with no waves, supplies one Jacobian per node.  Both must
        # produce the same verdict; the U(m) pair spans several node blocks.
        from caliblab.structures import _blocks

        rng = np.random.default_rng(19)
        pairs = [
            ("associative", flat_plane((1, 2, 3), 7),
             graph_patch((1, 2, 3), 7, [], "slow-123"),
             theorem_family("associative", FormField.random_fourier(7, 2, rng)), 4),
            ("cayley", flat_plane((1, 2, 3, 4), 8),
             graph_patch((1, 2, 3, 4), 8, [], "slow-1234"),
             theorem_family(
                 "cayley", FormField.random_fourier(8, 3, rng, frequency_axes=(1, 2, 3, 4))), 4),
            ("um", flat_plane((1, 2, 3, 4), 6),
             graph_patch((1, 2, 3, 4), 6, [], "slow-1234-r6"),
             theorem_family("um", FormField.random_fourier(6, 1, rng),
                            UmBackground.flat(3), 2), 6),
            ("coassociative", flat_plane((4, 5, 6, 7), 7),
             graph_patch((4, 5, 6, 7), 7, [], "slow-4567"),
             theorem_family("coassociative", FormField.random_fourier(7, 3, rng)), 4),
        ]
        # the block length of the experiments at n = 6, the U(m) pair's ambient dimension
        block = next(_blocks(10**6, max(6 * 6, math.comb(6, 3)))).stop
        assert max(order ** p.k for _, p, _, _, order in pairs) > 2 * block
        for case, fast_patch, slow_patch, fam, order in pairs:
            rule = QuadratureRule(fast_patch.box, order)
            a = theorem_A_experiment(fast_patch, fam, rule)
            b = theorem_A_experiment(slow_patch, fam, rule)
            assert a.calibrated and b.calibrated
            assert a.analytic_first_variation == pytest.approx(
                b.analytic_first_variation, abs=1e-12)
            assert a.stokes_value == pytest.approx(b.stokes_value, abs=1e-12)
            assert a.identity_max_err == pytest.approx(b.identity_max_err, abs=1e-11)
            if case == "cayley":
                assert a.cayley_condition == pytest.approx(b.cayley_condition, abs=1e-12)
                assert a.cayley_raw_identity_err == pytest.approx(
                    b.cayley_raw_identity_err, abs=1e-11)

    def test_integrand_blocks_bound_memory(self):
        # the Cayley integrands' rows are 70 floats wide: blocks of 512 nodes
        # would peak at 2.4 MB on t4-in-r8 and 3.0 MB on graph-cayley-r8
        from caliblab.cli import make_patch

        rng = np.random.default_rng(21)
        fam = theorem_family(
            "cayley", FormField.random_fourier(8, 3, rng, frequency_axes=(1, 2, 3, 4)))
        runs = (lambda p, r: theorem_A_experiment(p, fam, r),
                lambda p, r: analytic_first_variation(p, fam, r))
        for name, order in (("t4-in-r8", 8), ("graph-cayley-r8", 6)):
            patch = make_patch(name)
            rule = QuadratureRule(patch.box, order)
            for run in runs:
                run(patch, QuadratureRule(patch.box, 2))  # build the lazy tables first
                tracemalloc.start()
                try:
                    run(patch, rule)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 2 * 2**20, (name, peak)

    def test_fd_oracle_blocks_bound_memory(self):
        # the associative evaluator forms (7, 35) coefficient rows a node: over
        # all 1000 nodes at once the FD oracle would peak near 10 MB
        rng = np.random.default_rng(22)
        patch = graph_patch((1, 2, 3), 7, [(4, 0.1, (1, 0, 1), 0.3)], "graph-assoc")
        fam = theorem_family("associative", FormField.random_fourier(7, 2, rng))
        fd_first_variation(patch, fam, QuadratureRule(patch.box, 2))  # lazy tables
        tracemalloc.start()
        try:
            fd_first_variation(patch, fam, QuadratureRule(patch.box, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, peak

    @pytest.mark.parametrize("case,name,k", [("cayley", "t4-in-r8", 1), ("um", "t4-in-r6", 2)])
    def test_each_block_forms_its_velocity_once(self, case, name, k, monkeypatch):
        # one d(generator), one hat_sigma and one inverse metric a node block
        from caliblab import decomposition, variation
        from caliblab.cli import make_patch
        from caliblab.structures import _blocks
        from caliblab.variation import _integrand_floats

        rng = np.random.default_rng(23)
        patch = make_patch(name)
        rule = QuadratureRule(patch.box, 8)
        gen = FormField.random_fourier(patch.n, 3 if case == "cayley" else 1, rng)
        bg = UmBackground.wavy(3, rng, eps=0.01, frequency_axes=(1, 2, 3, 4))
        fam = theorem_family(case, gen, bg if case == "um" else None, k)
        blocks = len(list(_blocks(len(rule.nodes), _integrand_floats(patch.n))))
        assert blocks > 1
        calls = {"d_coeffs": 0, "hat_sigma": 0, "inv": 0}

        def counted(name, fn, only=None):
            def wrapper(*args):
                if only is None or args[0] is only:
                    calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(FormField, "d_coeffs", counted("d_coeffs", FormField.d_coeffs, gen))
        hat_sigma = counted("hat_sigma", decomposition.hat_sigma)
        monkeypatch.setattr(decomposition, "hat_sigma", hat_sigma)
        monkeypatch.setattr(variation, "hat_sigma", hat_sigma)
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        theorem_A_experiment(patch, fam, rule, defect_integral=0.0)
        assert calls["d_coeffs"] == blocks
        assert calls["hat_sigma"] <= blocks
        assert calls["inv"] <= blocks

    def test_verdict_scalars_roundtrip(self):
        rng = np.random.default_rng(14)
        p = flat_plane((1, 2, 3), 7)
        fam = theorem_family("associative", FormField.random_fourier(7, 2, rng))
        v = self.run_case(p, fam, order=2)
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

    @pytest.mark.parametrize("name", ["t4-in-r8", "graph-cayley-r8"])
    def test_each_block_forms_one_hat(self, name, monkeypatch):
        # both h-maps of a node block come from one hat_sigma
        from caliblab import decomposition, variation
        from caliblab.cli import make_patch
        from caliblab.structures import _blocks
        from caliblab.variation import _minors_floats

        patch = make_patch(name)
        rule = QuadratureRule(patch.box, 5)
        blocks = 1 if patch.flat else len(list(_blocks(len(rule.nodes), _minors_floats(SP7))))
        assert patch.flat or blocks > 1
        calls = []
        hat_sigma = decomposition.hat_sigma

        def counted(coeffs):
            calls.append(len(coeffs))
            return hat_sigma(coeffs)

        monkeypatch.setattr(decomposition, "hat_sigma", counted)
        monkeypatch.setattr(variation, "hat_sigma", counted)
        cayley_anomaly(patch, rule)
        assert len(calls) == blocks

    def test_projection_removes_discrepancy(self):
        # with the pure-trace part projected away the kept and projected
        # traces agree, so criticality is restored on Cayley planes
        from caliblab.decomposition import h0_sp7, h_sp7, project_35_7

        p = flat_plane((1, 2, 3, 4), 8)
        x = np.array([0.3, 0.5, 0.7, 0.1])
        d = test_variation_derivative("cayley", frames_at(p, x[None]), 0, 1)
        proj = project_35_7(d)[0]
        h_proj = h_sp7(proj)
        h_zero = h0_sp7(d)[0]
        assert np.abs(h_proj - h_zero).max() < 1e-12


class TestTangentPlanePath:
    """The routes that read only the tangent plane evaluate an axis plane's one
    plane once and agree with its twin, a graph with no waves, which supplies
    one Jacobian per node."""

    # (case, axis plane, quadrature order spanning several blocks of every route)
    PLANES = [
        ("um", (1, 2, 3, 4), 6, 6), ("um", (1, 3, 5, 6), 6, 6),
        ("associative", (1, 2, 3), 7, 9), ("associative", (1, 2, 4), 7, 9),
        ("coassociative", (4, 5, 6, 7), 7, 4), ("coassociative", (1, 2, 3, 4), 7, 4),
        ("cayley", (1, 2, 3, 4), 8, 4), ("cayley", (1, 2, 3, 5), 8, 4),
    ]
    IDS = [f"{c}-{''.join(map(str, a))}" for c, a, _, _ in PLANES]

    @staticmethod
    def routes(case, patch, rule):
        out = {
            "defect": lambda: theorem_B_defect(case, patch, rule),
            "chain": lambda: chain_consistency(case, patch, rule),
            "velocity": lambda: test_variation_family(case).h(patch, rule.nodes),
        }
        if case == "cayley":
            out["anomaly"] = lambda: cayley_anomaly(patch, rule)
        return out

    @pytest.mark.parametrize("case,axes,n,order", PLANES, ids=IDS)
    def test_axis_plane_matches_rotated_twin(self, case, axes, n, order):
        flat = flat_plane(axes, n)
        twin = graph_patch(axes, n, [], "twin")
        rule = QuadratureRule(flat.box, order)
        fast, slow = self.routes(case, flat, rule), self.routes(case, twin, rule)
        for name in fast:
            a, b = fast[name](), slow[name]()
            if isinstance(a, dict):
                assert a.keys() == b.keys()
                a, b = list(a.values()), list(b.values())
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("case,axes,n,order", PLANES, ids=IDS)
    def test_axis_plane_evaluated_once(self, case, axes, n, order):
        import dataclasses

        from caliblab.structures import _blocks

        p = flat_plane(axes, n)
        k = len(axes)
        arity = standard_kit(case, m=n // 2, k=max(1, k // 2)).arity
        rule = QuadratureRule(p.box, order)
        # the node blocks of the defect and of the derivative-minors routes
        for floats in (math.comb(k, arity - 1) * k * n, n * math.comb(n, arity + 1)):
            assert len(list(_blocks(len(rule.nodes), floats))) > 1
        calls = []

        def counted(xs):
            calls.append(len(xs))
            return p._rows(xs)

        wrapped = dataclasses.replace(p, _rows=counted)
        for name, run in self.routes(case, wrapped, rule).items():
            calls.clear()
            run()
            assert calls == [1], name


def _flow_volume_per_node(patch, xfield, rule):
    """The flowed-volume FD oracle with one RK4 integration per node."""
    from caliblab.variation import FLOW_FD_STEP, FLOW_RK4_STEPS, RICHARDSON_LEVELS

    def rhs(y, m):
        return xfield.value(y), xfield.jacobian(y) @ m

    def step(y, m, dt):
        k1 = rhs(y, m)
        k2 = rhs(y + 0.5 * dt * k1[0], m + 0.5 * dt * k1[1])
        k3 = rhs(y + 0.5 * dt * k2[0], m + 0.5 * dt * k2[1])
        k4 = rhs(y + dt * k3[0], m + dt * k3[1])
        return (y + dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
                m + dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))

    base = [(pos[0], jac[0]) for pos, jac in (patch.rows(x[None]) for x in rule.nodes)]

    def flowed_volume(t):
        vals = np.empty(len(base))
        for i, (y, m) in enumerate(base):
            for _ in range(FLOW_RK4_STEPS):
                y, m = step(y, m, t / FLOW_RK4_STEPS)
            vals[i] = math.sqrt(np.linalg.det(m.T @ m))
        return rule.integrate(vals)

    return fd_derivative(flowed_volume, 0.0, FLOW_FD_STEP, RICHARDSON_LEVELS)


def _divergence_route_per_node(patch, xfield, rule):
    """div_g(X^T) - <X_perp, H> node by node, with its own per-point geometry:
    P = I - J g^-1 J^T and H = P g^ab d2u/dx^a dx^b by direct solves."""
    from caliblab.variation import DIVERGENCE_FD_STEP

    def sqrtg_xi(x):
        (y,), (j,) = patch.rows(x[None])
        g = j.T @ j
        return math.sqrt(np.linalg.det(g)) * np.linalg.solve(g, j.T @ xfield.value(y))

    vals = np.empty(rule.nodes.shape[0])
    for i, x in enumerate(rule.nodes):
        (y,), (j,) = patch.rows(x[None])
        g = j.T @ j
        sg = math.sqrt(np.linalg.det(g))
        div = 0.0
        for a in range(patch.k):
            e = DIVERGENCE_FD_STEP * np.eye(patch.k)[a]
            div += (sqrtg_xi(x + e)[a] - sqrtg_xi(x - e)[a]) / (2 * DIVERGENCE_FD_STEP)
        p_normal = np.eye(patch.n) - j @ np.linalg.solve(g, j.T)
        hvec = p_normal @ np.einsum("nab,ab->n", patch.hessians(x[None])[0], np.linalg.inv(g))
        xperp = p_normal @ xfield.value(y)
        vals[i] = (div / sg - xperp @ hvec) * sg
    return rule.integrate(vals)


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

    def test_routes_match_per_node_loops(self, monkeypatch):
        # a small block budget spreads the nodes over several blocks
        from caliblab import structures
        from caliblab.cli import make_patch
        from caliblab.variation import DIVERGENCE_FD_STEP, divergence_route, flow_volume_derivative

        monkeypatch.setattr(structures, "BLOCK_BYTES", 4096)
        # the central differences of sqrt(g) xi turn last-digit differences
        # between stacked and per-point arithmetic into about eps / h
        div_atol = np.finfo(float).eps / DIVERGENCE_FD_STEP
        for name in ("sphere", "circle-r2", "torus2-r3", "t2-in-r4"):
            patch = make_patch(name)
            rule = QuadratureRule(patch.box, 5)
            for seed in (0, 1):
                x = VectorField.random(patch.n, np.random.default_rng(seed),
                                       with_linear=not patch.flat)
                value, err = flow_volume_derivative(patch, x, rule)
                ref_value, ref_err = _flow_volume_per_node(patch, x, rule)
                assert value == pytest.approx(ref_value, rel=1e-10, abs=1e-12)
                assert err == pytest.approx(ref_err, rel=1e-10, abs=1e-12)
                assert divergence_route(patch, x, rule) == pytest.approx(
                    _divergence_route_per_node(patch, x, rule), rel=1e-10, abs=div_atol)

    def test_divergence_route_evaluates_stacked_rows(self):
        import dataclasses

        from caliblab.variation import divergence_route

        p = sphere_patch(1.0)
        calls = {"_rows": 0, "_hess": 0}
        field_ndims = []

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        def recorded(fn):
            def wrapper(y):
                field_ndims.append(np.ndim(y))
                return fn(y)
            return wrapper

        wrapped = dataclasses.replace(p, **{name: counted(name, getattr(p, name)) for name in calls})
        x = VectorField.random(3, np.random.default_rng(5))
        x.value, x.jacobian = recorded(x.value), recorded(x.jacobian)
        rule = QuadratureRule(p.box, 8)
        got = divergence_route(wrapped, x, rule)
        # one row evaluation at the nodes and one per shifted row set x +- h e_a
        assert calls["_rows"] <= 2 * p.k + 1
        assert calls["_hess"] == 1
        assert field_ndims and set(field_ndims) == {2}  # stacked points only
        assert got == divergence_route(p, x, rule)

    def test_routes_bound_memory(self):
        from caliblab.variation import divergence_route, flow_volume_derivative

        p = sphere_patch(1.0)
        rule = QuadratureRule(p.box, 64)
        x = VectorField.random(3, np.random.default_rng(3))
        for run in (flow_volume_derivative, divergence_route):
            run(p, x, QuadratureRule(p.box, 2))
            tracemalloc.start()
            try:
                run(p, x, rule)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20
