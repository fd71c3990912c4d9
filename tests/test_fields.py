import numpy as np
import pytest

from caliblab.exterior import KForm, evaluate, n_coeffs, wedge
from caliblab.fields import FormField, FourierMode, SymTensorField, UmBackground, VectorField

H = 1e-6


def assert_rows_match(fn, ys):
    """fn on stacked points (..., n) equals fn on each point at rtol 1e-12."""
    stacked = fn(ys)
    for i in np.ndindex(ys.shape[:-1]):
        np.testing.assert_allclose(stacked[i], fn(ys[i]), rtol=1e-12, atol=0)


class TestFormField:
    def test_exterior_derivative_fd_oracle(self):
        # d coefficients must match sum_p (d coeffs/dy_p) e^p ^ (.)
        rng = np.random.default_rng(0)
        f = FormField.random_fourier(7, 2, rng, n_modes=4)
        y0 = rng.standard_normal(7)
        num = np.zeros(n_coeffs(7, 3))
        for p in range(7):
            e = np.zeros(7)
            e[p] = H
            partial = (f.value_coeffs(y0 + e) - f.value_coeffs(y0 - e)) / (2 * H)
            num += wedge(KForm.covector(np.eye(7)[p]), KForm(7, 2, partial)).coeffs
        assert np.abs(num - f.d_coeffs(y0)).max() < 1e-8

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(1)
        f = FormField.random_fourier(8, 3, rng, n_modes=3)
        ys = rng.standard_normal((6, 8))
        for i in range(6):
            assert np.abs(f.value_coeffs(ys)[i] - f.value_coeffs(ys[i])).max() < 1e-12
            assert np.abs(f.d_coeffs(ys)[i] - f.d_coeffs(ys[i])).max() < 1e-12

    def test_constant_field_has_zero_derivative(self):
        form = KForm.from_components(7, 2, {(1, 2): 2.0, (4, 6): -1.0})
        f = FormField.constant_form(form)
        y = np.ones(7)
        assert np.array_equal(f.value_coeffs(y), form.coeffs)
        assert np.abs(f.d_coeffs(y)).max() == 0.0

    def test_top_degree_and_function_fields_build(self):
        # the d table is built with the field; a top-degree form has d = 0
        rng = np.random.default_rng(13)
        y = rng.standard_normal((2, 4))
        top = FormField.random_fourier(4, 4, rng, n_modes=2)
        assert top.value_coeffs(y).shape == (2, 1) and top.d_coeffs(y).shape == (2, 0)
        fn = FormField.random_fourier(4, 0, rng, n_modes=2)
        assert fn.d_coeffs(y).shape == (2, 4)
        assert_rows_match(fn.d_coeffs, y)

    def test_frequency_axis_restriction(self):
        rng = np.random.default_rng(2)
        f = FormField.random_fourier(8, 3, rng, n_modes=5, frequency_axes=(1, 2, 3, 4))
        for mode in f.modes:
            assert np.abs(mode.freq[4:]).max() == 0.0
            assert np.abs(mode.freq[:4]).max() > 0.0

    def test_integer_frequencies_give_periodic_pullback(self):
        rng = np.random.default_rng(3)
        f = FormField.random_fourier(7, 2, rng, n_modes=3)
        y = rng.standard_normal(7)
        shift = np.zeros(7)
        shift[2] = 1.0  # one full period along an axis
        assert np.abs(f.value_coeffs(y) - f.value_coeffs(y + shift)).max() < 1e-12


class TestVectorField:
    def test_jacobian_fd_oracle(self):
        rng = np.random.default_rng(4)
        v = VectorField.random(6, rng)
        y0 = rng.standard_normal(6)
        num = np.zeros((6, 6))
        for p in range(6):
            e = np.zeros(6)
            e[p] = H
            num[:, p] = (v.value(y0 + e) - v.value(y0 - e)) / (2 * H)
        assert np.abs(num - v.jacobian(y0)).max() < 1e-7

    def test_without_linear_part(self):
        rng = np.random.default_rng(5)
        v = VectorField.random(4, rng, with_linear=False)
        assert np.abs(v.linear).max() == 0.0

    def test_stacked_points_match_rows(self):
        rng = np.random.default_rng(10)
        v = VectorField.random(6, rng, n_modes=3)
        ys = rng.standard_normal((3, 5, 6))
        assert v.value(ys).shape == (3, 5, 6) and v.jacobian(ys).shape == (3, 5, 6, 6)
        assert_rows_match(v.value, ys)
        assert_rows_match(v.jacobian, ys)


class TestSymTensorField:
    def test_symmetric_values(self):
        rng = np.random.default_rng(6)
        f = SymTensorField.random(5, rng)
        for _ in range(5):
            m = f.value(rng.standard_normal(5))
            assert np.abs(m - m.T).max() == 0.0

    def test_stacked_points_match_rows(self):
        rng = np.random.default_rng(11)
        f = SymTensorField.random(5, rng, n_modes=3)
        ys = rng.standard_normal((3, 5, 5))
        assert f.value(ys).shape == (3, 5, 5, 5)
        assert_rows_match(f.value, ys)


class TestUmBackground:
    def test_flat_background(self):
        bg = UmBackground.flat(3)
        y = np.ones(6)
        assert bg.is_flat
        assert np.array_equal(bg.metric(y), np.eye(6))
        assert np.abs(bg.d_omega_coeffs(y)).max() == 0.0

    def test_wavy_d_omega_fd_oracle(self):
        rng = np.random.default_rng(7)
        bg = UmBackground.wavy(3, rng, eps=0.1)
        y = rng.standard_normal(6)
        num = np.zeros(n_coeffs(6, 3))
        for p in range(6):
            e = np.zeros(6)
            e[p] = H
            partial = (bg.omega_coeffs(y + e) - bg.omega_coeffs(y - e)) / (2 * H)
            num += wedge(KForm.covector(np.eye(6)[p]), KForm(6, 2, partial)).coeffs
        assert np.abs(num - bg.d_omega_coeffs(y)).max() < 1e-7
        assert np.abs(bg.d_omega_coeffs(y)).max() > 1e-3  # torsion present

    def test_structure_compatibility(self):
        # omega(X, Y) = gbar(JX, Y) and J orthogonal for the position metric
        rng = np.random.default_rng(8)
        bg = UmBackground.wavy(2, rng, eps=0.2)
        for _ in range(5):
            y = rng.standard_normal(4)
            x_vec, y_vec = rng.standard_normal((2, 4))
            g = bg.metric(y)
            lhs = evaluate(KForm(4, 2, bg.omega_coeffs(y)), [x_vec, y_vec])
            assert lhs == pytest.approx((bg.J @ x_vec) @ g @ y_vec, abs=1e-12)
            assert np.abs(bg.J.T @ g @ bg.J - g).max() < 1e-12

    def test_metric_positive(self):
        rng = np.random.default_rng(9)
        bg = UmBackground.wavy(3, rng, eps=0.05)
        for _ in range(10):
            lam = bg.lambdas(rng.standard_normal(6))
            assert lam.min() > 0.5

    def test_stacked_points_match_rows(self):
        rng = np.random.default_rng(12)
        bg = UmBackground(3, waves=[[(0.1, np.array([1.0, 0, 0, -1, 0, 0]), 0.3),
                                     (0.05, np.array([0, 1.0, 1, 0, 0, 0]), 1.9)],
                                    [], [(0.2, np.array([0, 0, 0, 0, 1.0, 1]), 4.0)]])
        ys = rng.standard_normal((3, 5, 6))
        for fn, width in ((bg.lambdas, 3), (bg.omega_coeffs, 15), (bg.d_omega_coeffs, 20)):
            assert fn(ys).shape == (3, 5, width)
            assert_rows_match(fn, ys)


class TestFourierMode:
    def test_mode_value_formula(self):
        import math

        coeffs = np.zeros(21)
        coeffs[0] = 2.0
        freq = np.array([1.0, 0, 0, 0, 0, 0, 0])
        f = FormField(7, 2, modes=[FourierMode(coeffs, freq, 0.25)])
        y = np.array([0.3, 0, 0, 0, 0, 0, 0.0])
        want = 2.0 * math.sin(2 * math.pi * 0.3 + 0.25)
        assert f.value_coeffs(y)[0] == pytest.approx(want, abs=1e-15)
