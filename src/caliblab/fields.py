"""Ambient fields on R^n with analytic derivatives.

Fourier fields (trigonometric modes with constant coefficient forms) are the
workhorses: on a torus-identified patch their pullbacks are periodic whenever
every mode carries an integer frequency, which is what the Stokes arguments in
the variation experiments need.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exterior import KForm, index_position, n_coeffs, wedge


@dataclass(frozen=True)
class FourierMode:
    coeffs: np.ndarray       # coefficient vector of the constant form
    freq: np.ndarray         # integer frequency vector (length n)
    phase: float


class FormField:
    """k-form field built from constant and Fourier modes."""

    def __init__(self, n: int, k: int, constant: KForm | None = None,
                 modes: list[FourierMode] | None = None):
        self.n = n
        self.k = k
        self.constant = constant if constant is not None else KForm.zero(n, k)
        self.modes = modes or []
        self._d_tables = None

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
        axes = list(range(n)) if frequency_axes is None else [a - 1 for a in frequency_axes]
        modes = []
        for _ in range(n_modes):
            coeffs = amplitude * rng.standard_normal(n_coeffs(n, k))
            freq = np.zeros(n)
            while not np.any(freq[axes]):
                freq[axes] = rng.integers(-1, 2, size=len(axes))
            modes.append(FourierMode(coeffs, freq, float(rng.uniform(0, 2 * math.pi))))
        return FormField(n, k, modes=modes)

    # evaluation -------------------------------------------------------------
    def value(self, y) -> KForm:
        return KForm(self.n, self.k, self.value_coeffs(np.asarray(y, float)))

    def value_coeffs(self, y: np.ndarray) -> np.ndarray:
        c = self.constant.coeffs.copy()
        for m in self.modes:
            c = c + m.coeffs * math.sin(2 * math.pi * float(m.freq @ y) + m.phase)
        return c

    def d(self, y) -> KForm:
        """Ambient exterior derivative at a point (analytic)."""
        return KForm(self.n, self.k + 1, self.d_coeffs(np.asarray(y, float)))

    def d_coeffs(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(n_coeffs(self.n, self.k + 1))
        for wedge_cols, m in zip(self._wedge_tables(), self.modes):
            amp = 2 * math.pi * math.cos(2 * math.pi * float(m.freq @ y) + m.phase)
            out += amp * wedge_cols
        return out

    def _wedge_tables(self):
        # d(sin(2 pi f.y + c) alpha) = 2 pi cos(...) (f_p e^p) ^ alpha
        if self._d_tables is None:
            tables = []
            for m in self.modes:
                df = KForm.covector(m.freq)
                tables.append(wedge(df, KForm(self.n, self.k, m.coeffs)).coeffs)
            self._d_tables = tables
        return self._d_tables

    def value_coeffs_batch(self, ys: np.ndarray) -> np.ndarray:
        ys = np.atleast_2d(ys)
        out = np.broadcast_to(self.constant.coeffs, (ys.shape[0], self.constant.coeffs.size)).copy()
        for m in self.modes:
            s = np.sin(2 * math.pi * (ys @ m.freq) + m.phase)
            out += s[:, None] * m.coeffs
        return out

    def d_coeffs_batch(self, ys: np.ndarray) -> np.ndarray:
        ys = np.atleast_2d(ys)
        out = np.zeros((ys.shape[0], n_coeffs(self.n, self.k + 1)))
        for wedge_cols, m in zip(self._wedge_tables(), self.modes):
            amp = 2 * math.pi * np.cos(2 * math.pi * (ys @ m.freq) + m.phase)
            out += amp[:, None] * wedge_cols
        return out


class VectorField:
    """Ambient vector field with analytic Jacobian: linear part plus Fourier modes."""

    def __init__(self, n: int, constant=None, linear=None, modes=None):
        self.n = n
        self.constant = np.zeros(n) if constant is None else np.asarray(constant, float)
        self.linear = np.zeros((n, n)) if linear is None else np.asarray(linear, float)
        self.modes = modes or []  # list of (direction vector, freq vector, phase)

    @staticmethod
    def random(n: int, rng, n_modes: int = 2, frequency_axes=None,
               with_linear: bool = True) -> "VectorField":
        axes = list(range(n)) if frequency_axes is None else [a - 1 for a in frequency_axes]
        modes = []
        for _ in range(n_modes):
            direction = rng.standard_normal(n)
            freq = np.zeros(n)
            while not np.any(freq[axes]):
                freq[axes] = rng.integers(-1, 2, size=len(axes))
            modes.append((direction, freq, float(rng.uniform(0, 2 * math.pi))))
        lin = 0.3 * rng.standard_normal((n, n)) if with_linear else None
        return VectorField(n, constant=0.3 * rng.standard_normal(n), linear=lin, modes=modes)

    def value(self, y) -> np.ndarray:
        y = np.asarray(y, float)
        v = self.constant + self.linear @ y
        for direction, freq, phase in self.modes:
            v = v + direction * math.sin(2 * math.pi * float(freq @ y) + phase)
        return v

    def jacobian(self, y) -> np.ndarray:
        y = np.asarray(y, float)
        j = self.linear.copy()
        for direction, freq, phase in self.modes:
            j += (2 * math.pi * math.cos(2 * math.pi * float(freq @ y) + phase)
                  * np.outer(direction, freq))
        return j


class SymTensorField:
    """Symmetric-tensor field: constant part plus sine modes with symmetric coefficients."""

    def __init__(self, n: int, constant=None, modes=None):
        self.n = n
        self.constant = np.eye(n) * 0.0 if constant is None else np.asarray(constant, float)
        self.modes = modes or []  # list of (symmetric matrix, freq, phase)

    @staticmethod
    def random(n: int, rng, n_modes: int = 2, frequency_axes=None,
               amplitude: float = 1.0) -> "SymTensorField":
        axes = list(range(n)) if frequency_axes is None else [a - 1 for a in frequency_axes]
        modes = []
        for _ in range(n_modes):
            raw = rng.standard_normal((n, n))
            sym = amplitude * 0.5 * (raw + raw.T)
            freq = np.zeros(n)
            while not np.any(freq[axes]):
                freq[axes] = rng.integers(-1, 2, size=len(axes))
            modes.append((sym, freq, float(rng.uniform(0, 2 * math.pi))))
        raw = rng.standard_normal((n, n))
        return SymTensorField(n, constant=amplitude * 0.5 * (raw + raw.T), modes=modes)

    def value(self, y) -> np.ndarray:
        y = np.asarray(y, float)
        m = self.constant.copy()
        for sym, freq, phase in self.modes:
            m = m + sym * math.sin(2 * math.pi * float(freq @ y) + phase)
        return m


class UmBackground:
    """Position-dependent U(m) structure on R^{2m} with the standard (fixed) J.

    omega(y) = sum_a lambda_a(y) e^{2a-1} ^ e^{2a} with positive functions
    lambda_a; the flat background has lambda_a = 1 (d omega = 0).
    """

    def __init__(self, m: int, waves=None):
        self.m = m
        self.n = 2 * m
        # waves: per complex line a, list of (amplitude, freq vector, phase)
        self.waves = waves or [[] for _ in range(m)]
        j = np.zeros((self.n, self.n))
        for a in range(m):
            j[2 * a + 1, 2 * a] = 1.0
            j[2 * a, 2 * a + 1] = -1.0
        self.J = j

    @staticmethod
    def flat(m: int) -> "UmBackground":
        return UmBackground(m)

    @staticmethod
    def wavy(m: int, rng, eps: float = 0.05, frequency_axes=None) -> "UmBackground":
        """Background with d omega != 0, periodic along the given 1-based axes."""
        axes = list(range(2 * m)) if frequency_axes is None else [a - 1 for a in frequency_axes]
        waves = []
        for a in range(m):
            freq = np.zeros(2 * m)
            while not np.any(freq[axes]):
                freq[axes] = rng.integers(-1, 2, size=len(axes))
            waves.append([(eps * float(rng.uniform(0.5, 1.0)), freq,
                           float(rng.uniform(0, 2 * math.pi)))])
        return UmBackground(m, waves)

    @property
    def is_flat(self) -> bool:
        return all(not w for w in self.waves)

    def lambdas(self, y) -> np.ndarray:
        """lambda_a at one point (m,) or at a batch of points (N, m)."""
        y = np.asarray(y, float)
        out = np.ones(y.shape[:-1] + (self.m,))
        for a, wlist in enumerate(self.waves):
            for amp, freq, phase in wlist:
                out[..., a] += amp * np.sin(2 * math.pi * (y @ freq) + phase)
        return out

    def lambda_grads(self, y) -> np.ndarray:
        y = np.asarray(y, float)
        out = np.zeros((self.m, self.n))
        for a, wlist in enumerate(self.waves):
            for amp, freq, phase in wlist:
                out[a] += amp * 2 * math.pi * math.cos(2 * math.pi * float(freq @ y) + phase) * freq
        return out

    def omega_coeffs(self, y) -> np.ndarray:
        """Coefficients of omega at one point or at a batch of points (..., C(n, 2))."""
        lam = self.lambdas(y)
        out = np.zeros(lam.shape[:-1] + (n_coeffs(self.n, 2),))
        pos = index_position(self.n, 2)
        for a in range(self.m):
            out[..., pos[(2 * a, 2 * a + 1)]] = lam[..., a]
        return out

    def omega(self, y) -> KForm:
        return KForm(self.n, 2, self.omega_coeffs(y))

    def metric(self, y) -> np.ndarray:
        """The background metric at one point (n, n) or at a batch of points (N, n, n)."""
        diag = np.repeat(self.lambdas(y), 2, axis=-1)
        return diag[..., None] * np.eye(self.n)

    def d_omega(self, y) -> KForm:
        grads = self.lambda_grads(y)
        out = KForm.zero(self.n, 3)
        for a in range(self.m):
            if np.any(grads[a]):
                pair = KForm.basis(self.n, 2 * a + 1, 2 * a + 2)
                out = out + wedge(KForm.covector(grads[a]), pair)
        return out
