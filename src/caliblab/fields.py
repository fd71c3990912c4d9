"""Ambient fields on R^n with analytic derivatives.

Fourier fields (trigonometric modes with constant coefficient forms) are the
workhorses: on a torus-identified patch their pullbacks are periodic whenever
every mode carries an integer frequency, which is what the Stokes arguments in
the variation experiments need.  Each field keeps its modes as arrays
(coefficients (M, ...), frequencies (M, n), phases (M,)), and every evaluator
takes one point (n,) or stacked points (..., n).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .exterior import KForm, index_position, n_coeffs, wedge_coeffs
from .structures import standard_kit


class FourierMode(NamedTuple):
    coeffs: np.ndarray       # coefficient vector of the constant form
    freq: np.ndarray         # integer frequency vector (length n)
    phase: float


def _frequency(rng, n: int, frequency_axes=None) -> np.ndarray:
    """A frequency with entries in {-1, 0, 1}, nonzero only on the given
    (1-based) axes, all axes by default, and on at least one of them."""
    axes = list(range(n)) if frequency_axes is None else [a - 1 for a in frequency_axes]
    freq = np.zeros(n)
    while not np.any(freq[axes]):
        freq[axes] = rng.integers(-1, 2, size=len(axes))
    return freq


def _stack(modes, n: int, width: int):
    """Coefficient table (M, width), frequencies (M, n) and phases (M,) of
    (coefficients, frequency, phase) modes."""
    modes = modes or []
    return (np.array([m[0] for m in modes], float).reshape(len(modes), width),
            np.array([m[1] for m in modes], float).reshape(len(modes), n),
            np.array([m[2] for m in modes], float))


def _angles(freqs: np.ndarray, phases: np.ndarray, points) -> np.ndarray:
    """2 pi f.y + c of every mode at points (..., n), shape (..., M)."""
    return 2 * math.pi * (np.asarray(points, float) @ freqs.T) + phases


class FormField:
    """k-form field: a constant form plus modes sin(2 pi f.y + c) alpha."""

    def __init__(self, n: int, k: int, constant: KForm | None = None,
                 modes: list[FourierMode] | None = None):
        self.n = n
        self.k = k
        self.constant = constant if constant is not None else KForm.zero(n, k)
        self.coeffs, self.freqs, self.phases = _stack(modes, n, n_coeffs(n, k))
        # d(sin(2 pi f.y + c) alpha) = 2 pi cos(...) (f_p e^p) ^ alpha; d of a top-degree form is 0
        self.d_table = (2 * math.pi * wedge_coeffs(self.freqs, self.coeffs, n, 1, k) if k < n
                        else np.zeros((len(self.phases), 0)))

    @property
    def modes(self) -> list[FourierMode]:
        return [FourierMode(*mode) for mode in zip(self.coeffs, self.freqs, self.phases)]

    @staticmethod
    def constant_form(form: KForm) -> "FormField":
        return FormField(form.n, form.k, constant=form)

    @staticmethod
    def random_fourier(n: int, k: int, rng, n_modes: int = 3,
                       frequency_axes=None, amplitude: float = 1.0) -> "FormField":
        """Random modes with frequency entries in {-1, 0, 1}.

        frequency_axes restricts which (1-based) axes may carry a nonzero
        frequency; each mode is guaranteed at least one nonzero entry there.
        """
        modes = [FourierMode(amplitude * rng.standard_normal(n_coeffs(n, k)),
                             _frequency(rng, n, frequency_axes),
                             float(rng.uniform(0, 2 * math.pi)))
                 for _ in range(n_modes)]
        return FormField(n, k, modes=modes)

    # evaluation -------------------------------------------------------------
    def value_coeffs(self, y) -> np.ndarray:
        """Coefficients at one point (C(n, k),) or at stacked points (..., C(n, k))."""
        return self.constant.coeffs + np.sin(_angles(self.freqs, self.phases, y)) @ self.coeffs

    def d_coeffs(self, y) -> np.ndarray:
        """Coefficients of the ambient exterior derivative (analytic) at one point
        or at stacked points (..., C(n, k + 1))."""
        return np.cos(_angles(self.freqs, self.phases, y)) @ self.d_table


class VectorField:
    """Ambient vector field with analytic Jacobian: linear part plus Fourier modes."""

    def __init__(self, n: int, constant=None, linear=None, modes=None):
        self.n = n
        self.constant = np.zeros(n) if constant is None else np.asarray(constant, float)
        self.linear = np.zeros((n, n)) if linear is None else np.asarray(linear, float)
        # modes: (direction vector, freq vector, phase) each
        self.directions, self.freqs, self.phases = _stack(modes, n, n)
        # flattened 2 pi direction (x) freq per mode: the Jacobian of a mode over cos(...)
        self._outer = (2 * math.pi * self.directions[:, :, None] * self.freqs[:, None, :]
                       ).reshape(-1, n * n)

    @staticmethod
    def random(n: int, rng, n_modes: int = 2, frequency_axes=None,
               with_linear: bool = True) -> "VectorField":
        modes = [(rng.standard_normal(n), _frequency(rng, n, frequency_axes),
                  float(rng.uniform(0, 2 * math.pi))) for _ in range(n_modes)]
        lin = 0.3 * rng.standard_normal((n, n)) if with_linear else None
        return VectorField(n, constant=0.3 * rng.standard_normal(n), linear=lin, modes=modes)

    def value(self, y) -> np.ndarray:
        """The field at one point (n,) or at stacked points (..., n)."""
        y = np.asarray(y, float)
        return (self.constant + y @ self.linear.T
                + np.sin(_angles(self.freqs, self.phases, y)) @ self.directions)

    def jacobian(self, y) -> np.ndarray:
        """The Jacobian at one point (n, n) or at stacked points (..., n, n)."""
        modes = np.cos(_angles(self.freqs, self.phases, y)) @ self._outer
        return self.linear + modes.reshape(modes.shape[:-1] + (self.n, self.n))


class SymTensorField:
    """Symmetric-tensor field: constant part plus sine modes with symmetric coefficients."""

    def __init__(self, n: int, constant=None, modes=None):
        self.n = n
        self.constant = np.zeros((n, n)) if constant is None else np.asarray(constant, float)
        # modes: (symmetric matrix, freq vector, phase) each; matrices stored flat
        self.matrices, self.freqs, self.phases = _stack(modes, n, n * n)

    @staticmethod
    def random(n: int, rng, n_modes: int = 2, frequency_axes=None,
               amplitude: float = 1.0) -> "SymTensorField":
        def sym():
            raw = rng.standard_normal((n, n))
            return amplitude * 0.5 * (raw + raw.T)

        modes = [(sym(), _frequency(rng, n, frequency_axes), float(rng.uniform(0, 2 * math.pi)))
                 for _ in range(n_modes)]
        return SymTensorField(n, constant=sym(), modes=modes)

    def value(self, y) -> np.ndarray:
        """The tensor at one point (n, n) or at stacked points (..., n, n)."""
        modes = np.sin(_angles(self.freqs, self.phases, y)) @ self.matrices
        return self.constant + modes.reshape(modes.shape[:-1] + (self.n, self.n))


class UmBackground:
    """Position-dependent U(m) structure on R^{2m} with the standard (fixed) J.

    omega(y) = sum_a lambda_a(y) e^{2a-1} ^ e^{2a} with positive functions
    lambda_a; the flat background has lambda_a = 1 (d omega = 0).  omega is one
    FormField: its constant is sum_a e^{2a-1} ^ e^{2a}, and a wave
    amp sin(2 pi f.y + c) of lambda_a is the mode with coefficients
    amp e^{2a-1} ^ e^{2a}.
    """

    def __init__(self, m: int, waves=None):
        self.m = m
        self.n = 2 * m
        pos = index_position(self.n, 2)
        self._pairs = [pos[(2 * a, 2 * a + 1)] for a in range(m)]
        pair_forms = np.eye(n_coeffs(self.n, 2))[self._pairs]
        # waves: per complex line a, list of (amplitude, freq vector, phase)
        modes = [FourierMode(amp * pair_forms[a], freq, phase)
                 for a, wlist in enumerate(waves or []) for amp, freq, phase in wlist]
        self.omega_field = FormField(self.n, 2, KForm(self.n, 2, pair_forms.sum(axis=0)), modes)
        self.J = standard_kit("um", m, 1).tensor.T  # omega(x, y) = <J x, y>

    @staticmethod
    def flat(m: int) -> "UmBackground":
        return UmBackground(m)

    @staticmethod
    def wavy(m: int, rng, eps: float = 0.05, frequency_axes=None) -> "UmBackground":
        """Background with d omega != 0, periodic along the given 1-based axes."""
        waves = []
        for _ in range(m):
            freq = _frequency(rng, 2 * m, frequency_axes)
            waves.append([(eps * float(rng.uniform(0.5, 1.0)), freq,
                           float(rng.uniform(0, 2 * math.pi)))])
        return UmBackground(m, waves)

    @property
    def is_flat(self) -> bool:
        return not self.omega_field.phases.size

    def lambdas(self, y) -> np.ndarray:
        """lambda_a at one point (m,) or at stacked points (..., m)."""
        return self.omega_coeffs(y)[..., self._pairs]

    def omega_coeffs(self, y) -> np.ndarray:
        """Coefficients of omega at one point or at stacked points (..., C(n, 2))."""
        return self.omega_field.value_coeffs(y)

    def metric(self, y) -> np.ndarray:
        """The background metric at one point (n, n) or at stacked points (..., n, n)."""
        diag = np.repeat(self.lambdas(y), 2, axis=-1)
        return diag[..., None] * np.eye(self.n)

    def d_omega_coeffs(self, y) -> np.ndarray:
        """Coefficients of d omega at one point or at stacked points (..., C(n, 3))."""
        return self.omega_field.d_coeffs(y)
