import math

import numpy as np
import pytest

from caliblab.cli import random_triple, smith_catalog
from caliblab.exterior import DegenerateInputError, minors
from caliblab.fields import SymTensorField
from caliblab.smith import (
    MapTriple,
    calibration_integral,
    conformality_residual,
    energy_first_variation_domain,
    energy_first_variation_target,
    fd_energy_domain,
    k_energy,
    k_volume,
    sample_points,
    smith_residual,
)
from caliblab.structures import standard_kit
from caliblab.submanifold import Box, Patch, QuadratureRule, volume
from caliblab.variation import ambient_family, analytic_first_variation

UM2 = standard_kit("um", m=2, k=1)
EYE_G = lambda x: np.eye(2)


def pointwise(ev, jac):
    """Row formula from per-point position and Jacobian formulas, row by row."""
    return lambda xs: (np.array([ev(x) for x in xs]), np.array([jac(x) for x in xs]))


def linear_map(name, n, mat):
    mat = np.asarray(mat, float)
    return Patch(name, mat.shape[1], n, Box.unit(mat.shape[1]), False,
                 pointwise(lambda x: mat @ x, lambda x: mat))


HOLO = MapTriple(linear_map("holo", 4, np.eye(4)[:, :2].copy()), EYE_G, UM2)
RULE = QuadratureRule(Box.unit(2), 6)


class TestEnergy:
    def test_identity_map_area(self):
        assert k_energy(HOLO, RULE) == pytest.approx(1.0, abs=1e-13)

    def test_dilation(self):
        c = 1.7
        triple = MapTriple(linear_map("dil", 4, c * np.eye(4)[:, :2]), EYE_G, UM2)
        assert k_energy(triple, RULE) == pytest.approx(c * c, abs=1e-12)

    def test_conformal_invariance(self):
        def lam_g(x):
            return (1 + 0.6 * math.sin(2 * math.pi * x[0]) * math.cos(x[1])) ** 2 * np.eye(2)

        scaled = MapTriple(HOLO.patch, lam_g, UM2)
        assert k_energy(scaled, RULE) == pytest.approx(k_energy(HOLO, RULE), abs=1e-10)

    def test_degenerate_metric(self):
        bad = MapTriple(HOLO.patch, lambda x: np.diag([1.0, -1.0]), UM2)
        with pytest.raises(DegenerateInputError):
            k_energy(bad, RULE)


class TestVolume:
    def test_identity_map(self):
        assert k_volume(HOLO, RULE) == pytest.approx(1.0, abs=1e-13)

    def test_constant_map(self):
        triple = MapTriple(linear_map("const", 4, np.zeros((4, 2))), EYE_G, UM2)
        assert k_volume(triple, RULE) == 0.0

    def test_matches_patch_volume(self):
        # cross-module oracle: k-volume of a graph map equals the patch volume
        def ev(x):
            return np.array([x[0], x[1], 0.2 * math.sin(2 * math.pi * x[0]) * x[1], 0.0])

        def jac(x):
            return np.array([
                [1.0, 0.0], [0.0, 1.0],
                [0.4 * math.pi * math.cos(2 * math.pi * x[0]) * x[1],
                 0.2 * math.sin(2 * math.pi * x[0])],
                [0.0, 0.0]])

        patch = Patch("graph-map", 2, 4, Box.unit(2), False, pointwise(ev, jac))
        triple = MapTriple(patch, EYE_G, UM2)
        rule = QuadratureRule(patch.box, 10)
        assert k_volume(triple, rule) == pytest.approx(
            volume(patch, None, rule), abs=1e-8)


class TestCalibrationIntegral:
    def test_holomorphic(self):
        assert calibration_integral(HOLO, RULE) == pytest.approx(1.0, abs=1e-13)

    def test_antiholomorphic(self):
        anti = MapTriple(linear_map("anti", 4, np.eye(4)[:, [1, 0]]), EYE_G, UM2)
        assert calibration_integral(anti, RULE) == pytest.approx(-1.0, abs=1e-13)

    def test_degree_mismatch(self):
        kit3 = standard_kit("associative")
        triple = MapTriple(linear_map("bad", 7, np.eye(7)[:, :2]), EYE_G, kit3)
        with pytest.raises(DegenerateInputError):
            calibration_integral(triple, RULE)

    def test_chain_inequality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            a = 0.8 * rng.standard_normal((4, 2))
            triple = MapTriple(linear_map("rand", 4, a), EYE_G, UM2)
            e = k_energy(triple, RULE)
            v = k_volume(triple, RULE)
            c = calibration_integral(triple, RULE)
            assert e >= v - 1e-12
            assert v >= c - 1e-12


class TestResiduals:
    def test_identity_is_conformal(self):
        assert conformality_residual(HOLO, RULE) < 1e-14

    def test_dilation_is_conformal(self):
        triple = MapTriple(linear_map("dil", 4, 2.2 * np.eye(4)[:, :2]), EYE_G, UM2)
        assert conformality_residual(triple, RULE) < 1e-12

    def test_anisotropic_value(self):
        mat = np.eye(4)[:, :2] @ np.diag([1.0, 2.0])
        triple = MapTriple(linear_map("aniso", 4, mat), EYE_G, UM2)
        # u* gbar = diag(1,4) versus (5/2) I
        assert conformality_residual(triple, RULE) == pytest.approx(
            1.5 * math.sqrt(2), abs=1e-12)

    def test_smith_residual_cases(self):
        conf, cal = smith_residual(HOLO, RULE)
        assert conf < 1e-14 and cal < 1e-14
        wrong = MapTriple(linear_map("wrong", 4, np.eye(4)[:, [0, 2]]), EYE_G, UM2)
        conf, cal = smith_residual(wrong, RULE)
        assert conf < 1e-14 and cal > 0.9
        mat = np.eye(4)[:, :2] @ np.diag([1.0, 2.0])
        aniso = MapTriple(linear_map("aniso", 4, mat), EYE_G, UM2)
        conf, cal = smith_residual(aniso, RULE)
        assert conf > 0.1 and cal > 0.1

    def test_calibration_residual_zero_implies_conformal(self):
        # on the catalog maps a vanishing second residual forces the first
        for triple in (HOLO,
                       MapTriple(linear_map("dil", 4, 1.3 * np.eye(4)[:, :2]), EYE_G, UM2)):
            conf, cal = smith_residual(triple, RULE)
            if cal < 1e-10:
                assert conf < 1e-10


class TestDomainVariation:
    def test_weakly_conformal_critical(self):
        h = SymTensorField.random(2, np.random.default_rng(1))
        assert abs(energy_first_variation_domain(HOLO, h.value, RULE)) < 1e-12

    def test_h_equals_g_direction(self):
        assert abs(energy_first_variation_domain(HOLO, lambda x: np.eye(2), RULE)) < 1e-12

    def test_matches_fd_on_anisotropic(self):
        mat = np.eye(4)[:, :2] @ np.diag([1.0, 2.0])
        triple = MapTriple(linear_map("aniso", 4, mat), EYE_G, UM2)
        h = SymTensorField.random(2, np.random.default_rng(2))
        analytic = energy_first_variation_domain(triple, h.value, RULE)
        fd, _ = fd_energy_domain(triple, h.value, RULE)
        assert analytic == pytest.approx(fd, abs=1e-6)

    def test_k1_excluded(self):
        line = Patch("line", 1, 4, Box.unit(1), False,
                     pointwise(lambda x: np.array([x[0], 0, 0, 0]),
                               lambda x: np.array([[1.0], [0], [0], [0]])))
        triple = MapTriple(line, lambda x: np.eye(1), UM2)
        with pytest.raises(DegenerateInputError):
            energy_first_variation_domain(triple, lambda x: np.eye(1),
                                          QuadratureRule(Box.unit(1), 4))


class TestTargetVariation:
    def test_zero_field(self):
        assert energy_first_variation_target(HOLO, lambda y: np.zeros((4, 4)), RULE) == 0.0

    def test_scaling_field_gives_half_k_volume(self):
        got = energy_first_variation_target(HOLO, lambda y: np.eye(4), RULE)
        assert got == pytest.approx((2 / 2) * k_volume(HOLO, RULE), abs=1e-12)

    def test_matches_image_patch_first_variation(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            hbar = SymTensorField.random(4, rng)
            energy_route = energy_first_variation_target(HOLO, hbar.value, RULE)
            volume_route = analytic_first_variation(
                HOLO.patch, ambient_family(hbar), RULE)
            assert energy_route == pytest.approx(volume_route, abs=1e-10)

    def test_conformal_pointwise_volume_relation(self):
        # for weakly conformal maps: vol_{u*gbar} = |du|^k vol_g / sqrt(k)^k
        for x in RULE.nodes[:5]:
            j = HOLO.patch.jacobians(x[None])[0]
            a = j.T @ j
            du2 = np.trace(a)
            lhs = math.sqrt(np.linalg.det(a))
            rhs = du2 ** (HOLO.k / 2) / math.sqrt(HOLO.k) ** HOLO.k
            assert lhs == pytest.approx(rhs, abs=1e-13)


def per_node_reference(triple, rule, h_field, hbar_field):
    """The smith functionals as per-node loops over the per-point Jacobian."""
    k, mu = triple.k, triple.kit.mu
    scale = math.sqrt(k) ** k

    def densities(x):
        j = triple.patch.jacobians(x[None])[0]
        a = j.T @ j
        g = triple.domain_metric(x)
        du2 = max(float(np.trace(np.linalg.solve(g, a))), 0.0)
        return du2, math.sqrt(np.linalg.det(g)), a, g, j

    energy, vol, calib, domain, target = (np.empty(len(rule.nodes)) for _ in range(5))
    for i, x in enumerate(rule.nodes):
        du2, sg, a, g, j = densities(x)
        energy[i] = du2 ** (k / 2.0) * sg
        vol[i] = math.sqrt(max(np.linalg.det(a), 0.0))
        calib[i] = minors(j.T) @ mu
        t = -k * du2 ** ((k - 2) / 2.0) * a + du2 ** (k / 2.0) * g
        domain[i] = np.trace(np.linalg.solve(g, h_field(x)) @ np.linalg.solve(g, t)) * sg
        pulled = j.T @ hbar_field(triple.patch.positions(x[None])[0]) @ j
        target[i] = du2 ** ((k - 2) / 2.0) * np.trace(np.linalg.solve(g, pulled)) * sg
    conf = cal = 0.0
    for x in sample_points(triple, rule):
        du2, sg, a, g, j = densities(x)
        linv = np.linalg.inv(np.linalg.cholesky(g))
        conf = max(conf, np.linalg.norm(linv @ a @ linv.T - du2 / k * np.eye(k)))
        cal = max(cal, abs(minors(j.T) @ mu - du2 ** (k / 2.0) * sg / scale))
    return {"k_energy": rule.integrate(energy) / scale, "k_volume": rule.integrate(vol),
            "calibration_integral": rule.integrate(calib), "smith_residual": (conf, cal),
            "domain": rule.integrate(domain) / (2.0 * scale),
            "target": rule.integrate(target) * k / (2.0 * scale)}


class TestRowFormulaMatchesPerNodeLoops:
    def test_random_and_catalog_maps(self):
        rng = np.random.default_rng(11)
        triples = [random_triple(rng) for _ in range(20)]
        triples += [triple for _, triple, _ in smith_catalog()]
        for triple in triples:
            rule = QuadratureRule(triple.patch.box, 5)
            h = SymTensorField.random(2, rng).value
            hbar = SymTensorField.random(4, rng).value
            want = per_node_reference(triple, rule, h, hbar)
            got = {"k_energy": k_energy(triple, rule), "k_volume": k_volume(triple, rule),
                   "calibration_integral": calibration_integral(triple, rule),
                   "smith_residual": smith_residual(triple, rule),
                   "domain": energy_first_variation_domain(triple, h, rule),
                   "target": energy_first_variation_target(triple, hbar, rule)}
            for name, value in got.items():
                assert value == pytest.approx(want[name], rel=1e-12), (triple.patch.name, name)
