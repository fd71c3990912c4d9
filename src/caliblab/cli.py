"""Command-line front end: identity suites, theorem experiments, Smith and
minimal-submanifold suites, and machine-readable reports.

Each report subcommand is a generator of (id, inputs, results, checks)
experiments; one driver times, scores and writes them as line-delimited JSON
records (schema version 1) or CSV, deterministic for a fixed (config, seed)
apart from the wall_ms field.  Exit codes: 0 all pass, 1 assertion failures,
2 bad input or a report that cannot be written.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .exterior import MAX_DIM, DimensionError
from .fields import FormField, FourierMode, SymTensorField, UmBackground, VectorField
from .smith import (
    MapTriple,
    calibration_integral,
    energy_first_variation_domain,
    energy_first_variation_target,
    k_energy,
    k_volume,
    smith_residual,
)
from .structures import (
    TOL_CALIB,
    associative_equality_residuals,
    coassociative_equality_residuals,
    g2_identity_violations,
    spin7_identity_violations,
    standard_kit,
)
from .submanifold import (
    Box,
    Patch,
    QuadratureRule,
    QuadratureSizeError,
    circle_patch,
    flat_plane,
    graph_patch,
    sphere_patch,
    torus_patch,
)
from .variation import (
    CASES,
    CAYLEY_KEPT_TRACE,
    TOL_INT,
    TOL_POINT,
    Check,
    ambient_family,
    analytic_first_variation,
    cayley_anomaly,
    chain_consistency,
    minimal_comparison,
    passed,
    plane_defect,
    theorem_A_experiment,
    theorem_B_defect,
    theorem_family,
)

SCHEMA_VERSION = 1

DEFAULT_PATCH = {
    "um": "t2-in-r6",
    "associative": "t3-in-r7",
    "coassociative": "t4-in-r7",
    "cayley": "t4-in-r8",
}

GENERATORS = ("random", "test-variation")
# identities draws and checks its random equality vectors this many trials at a time
EQUALITY_CHUNK = 10_000


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# patch registry

# the named patches, in catalog order; "plane-<axes>-r<n>" names any axis plane
_PATCHES = {
    "t2-in-r4": lambda: flat_plane((1, 2), 4, name="t2-in-r4"),
    "t2-in-r6": lambda: flat_plane((1, 2), 6, name="t2-in-r6"),
    "t4-in-r6": lambda: flat_plane((1, 2, 3, 4), 6, name="t4-in-r6"),
    "t3-in-r7": lambda: flat_plane((1, 2, 3), 7, name="t3-in-r7"),
    "t4-in-r7": lambda: flat_plane((4, 5, 6, 7), 7, name="t4-in-r7"),
    "t4-in-r8": lambda: flat_plane((1, 2, 3, 4), 8, name="t4-in-r8"),
    "graph-um-r6": lambda: graph_patch(
        (1, 2), 6, [(3, 0.12, (1, 1), 0.4), (5, 0.08, (2, -1), 1.2)], "graph-um-r6"),
    "graph-assoc-r7": lambda: graph_patch(
        (1, 2, 3), 7, [(4, 0.1, (1, 0, 1), 0.3), (6, 0.07, (0, 1, -1), 1.1)],
        "graph-assoc-r7"),
    "graph-coassoc-r7": lambda: graph_patch(
        (4, 5, 6, 7), 7, [(1, 0.1, (1, 1, 0, 0), 0.4), (3, 0.06, (0, 1, 0, -1), 2.0)],
        "graph-coassoc-r7"),
    "graph-cayley-r8": lambda: graph_patch(
        (1, 2, 3, 4), 8, [(5, 0.1, (1, 0, 1, 0), 0.9), (8, 0.05, (0, 1, -1, 0), 0.2)],
        "graph-cayley-r8"),
    "circle-r2": lambda: circle_patch(1.0),
    "sphere": lambda: sphere_patch(1.0),
    "torus2-r3": lambda: torus_patch(),
}


def make_patch(name: str) -> Patch:
    if name in _PATCHES:
        return _PATCHES[name]()
    if name.startswith("plane-"):
        body = name[len("plane-"):]
        axes_part, _, dim_part = body.partition("-r")
        try:
            axes, n = tuple(int(c) for c in axes_part), int(dim_part)
            if n > MAX_DIM:  # the exterior algebra stops at R^8
                raise DimensionError(f"ambient dimension {n} is above {MAX_DIM}")
            return flat_plane(axes, n, name=name)
        except ValueError as exc:  # covers bad digits and dimension errors
            raise ConfigError(f"malformed plane patch {name!r}: {exc}") from exc
    raise ConfigError(f"unknown patch {name!r}")


def catalog_patches() -> list[str]:
    return [*_PATCHES, "plane-<axes>-r<n>"]


# ---------------------------------------------------------------------------
# reports

def _write(text: str, out: str | None = None) -> None:
    """Write text to the file out or to stdout; a failed write exits 2 (ConfigError)."""
    try:
        if out:
            with open(out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write the report: {exc}") from exc


def _report(experiments, out: str | None, fmt: str) -> int:
    """Time, score and write a report subcommand's experiments, each an (id,
    inputs, results, checks) tuple: 0 if every one passed, else 1.  A record's
    wall_ms is the time since the previous experiment was yielded; the first
    also covers the subcommand's set-up.  A record with no check passes, and is
    marked vacuous."""
    records = []
    t0 = time.perf_counter()
    for exp_id, inputs, results, checks in experiments:
        t1 = time.perf_counter()
        records.append({"schema": SCHEMA_VERSION, "id": exp_id, "inputs": inputs,
                        "results": results, "pass": passed(checks),
                        "wall_ms": round(1000 * (t1 - t0), 3)})
        if not checks:
            records[-1]["vacuous"] = True
        t0 = t1
    records.sort(key=lambda r: r["id"])
    if fmt == "jsonl":
        # numpy scalars that are not Python floats (np.bool_, np.int64) print as .item()
        text = "".join(json.dumps(r, sort_keys=True, default=lambda o: o.item()) + "\n"
                       for r in records)
    else:
        buf = io.StringIO()
        scalar_keys = sorted({k for r in records for k, v in r["results"].items()
                              if isinstance(v, (int, float, np.floating))})
        writer = csv.writer(buf)
        writer.writerow(["id", "pass", "wall_ms"] + scalar_keys)
        for r in records:
            writer.writerow([r["id"], r["pass"], r["wall_ms"]]
                            + [r["results"].get(k, "") for k in scalar_keys])
        text = buf.getvalue()
    _write(text, out)
    return 0 if all(r["pass"] for r in records) else 1


# ---------------------------------------------------------------------------
# identities

def cmd_identities(opts):
    case = opts["case"]
    phi, psi, Phi = (standard_kit(c).tensor for c in ("associative", "coassociative", "cayley"))
    suites = {"g2": lambda: g2_identity_violations(phi, psi),
              "sp7": lambda: spin7_identity_violations(Phi)}
    for prefix, violations in suites.items():
        if case in (None, prefix):
            for fam, vio in violations().items():
                yield (f"identity-{prefix}-{fam}", {"kind": "identity", "family": fam},
                       {"max_violation": vio}, [Check("max_violation", vio, 1)])
    if case is not None:
        return
    trials = opts["trials"]
    for name, residuals, arity in (("associative", associative_equality_residuals, 3),
                                   ("coassociative", coassociative_equality_residuals, 4)):
        rng = np.random.default_rng(opts["seed"])  # each kernel sees the same vectors
        worst = worst_rel = 0.0
        for start in range(0, trials, EQUALITY_CHUNK):
            xs = rng.standard_normal((4, min(EQUALITY_CHUNK, trials - start), 7))[:arity]
            res = np.abs(residuals(*xs))
            # the residuals are degree-2 in each vector, and so is their round-off
            scale = np.prod(np.einsum("abi,abi->ab", xs, xs), axis=0)
            worst = np.maximum(worst, res.max())  # keeps a NaN
            worst_rel = np.maximum(worst_rel, (res / scale).max())
        yield (f"equality-{name}", {"kind": "equality", "trials": trials},
               {"max_residual": worst, "max_relative_residual": worst_rel},
               [Check("max_relative_residual", worst_rel, EQUALITY_REL_TOL)])


# ---------------------------------------------------------------------------
# theorem experiments

def _random_generator(kit, rng, tangent_axes) -> FormField:
    # d(generator) is a velocity of the cross product's form, of degree arity + 1
    freq_axes = tangent_axes if kit.case == "cayley" else None
    return FormField.random_fourier(kit.n, kit.arity, rng, n_modes=3, frequency_axes=freq_axes)


def theorem_patch(opts) -> Patch:
    """The patch of a theorem run, checked against the case's structure kit.
    Raises ConfigError for an unknown patch or one that does not fit."""
    case, k = opts["case"], opts["k"]
    for flag, is_set, owner in (("--keep-omega4-1", opts["keep_omega4_1"], "cayley"),
                                ("--k", k != 1, "um"),
                                ("--closed-omega", opts["closed_omega"], "um")):
        if is_set and case != owner:
            raise ConfigError(f"{flag} only applies to the {owner} case")
    name = opts["patch"]
    if name is None:
        name = "t4-in-r6" if case == "um" and k == 2 else DEFAULT_PATCH[case]
    patch = make_patch(name)
    try:
        kit = standard_kit(case, m=patch.n // 2, k=k)
    except DimensionError as exc:
        raise ConfigError(f"--case {case} --k {k} does not fit patch {name}: {exc}") from exc
    # the U(m) kit lives in R^{2m}, so this also rejects an odd ambient dimension
    if (patch.n, patch.k) != (kit.n, kit.calibration_dim):
        raise ConfigError(f"--case {case} calibrates {kit.calibration_dim}-planes in "
                          f"R^{kit.n}; patch {name} is a {patch.k}-patch in R^{patch.n}")
    return patch


def cmd_theorem(opts):
    patch = theorem_patch(opts)
    case, generator, seed, k = opts["case"], opts["generator"], opts["seed"], opts["k"]
    kit = standard_kit(case, m=patch.n // 2, k=k)
    keep, tol_point = opts["keep_omega4_1"], opts["tol_point"]

    rule = QuadratureRule(patch.box, opts["quad_order"])
    tangent_axes = tuple(a + 1 for a in patch.axes) if patch.axes else None
    background = None
    if case == "um":
        m = patch.n // 2
        rng0 = np.random.default_rng(seed)
        if opts["closed_omega"] or k == 1:
            background = UmBackground.flat(m)
        else:
            background = UmBackground.wavy(m, rng0, eps=0.01, frequency_axes=tangent_axes)

    # what depends only on the patch is computed once and shared by the experiments;
    # it draws nothing from the seed
    defect = theorem_B_defect(case, patch, rule)
    if generator == "test-variation":  # deterministic: every experiment is the same
        shared = _test_variation_results(case, patch, rule, defect, keep, tol_point)
    else:
        chain = chain_consistency(case, patch, rule, nodes=rule.nodes[:1])
    seeds = np.random.SeedSequence(seed)  # one child per experiment, spawned as it starts
    for i in range(opts["count"]):
        rng = np.random.default_rng(seeds.spawn(1)[0])
        inputs = {"case": case, "patch": patch.name, "generator": generator,
                  "index": i, "quad_order": rule.order, "seed": seed,
                  "keep_omega4_1": keep}
        if generator == "test-variation":
            results, checks = shared
        else:
            gen = _random_generator(kit, rng, tangent_axes or tuple(range(1, patch.k + 1)))
            if case == "um" and background is not None and not background.is_flat:
                gen = _resonant_um_generator(background, rng)
            fam = theorem_family(case, gen, background, k, keep)
            results, checks = theorem_A_experiment(patch, fam, rule, tol_point, opts["tol_int"])
            results.update(defect_integral=defect, chain_consistency=chain)
            checks = [*checks, Check("chain_consistency", chain, tol_point)]
            if not results["calibrated"]:
                checks.append(_defect_floor(defect))
        yield f"theorem-{case}-{patch.name}-{generator}-{i:03d}", inputs, results, checks


def _resonant_um_generator(background: UmBackground, rng) -> FormField:
    """Fourier modes sharing the background wave frequencies, and one along the
    first axis, so the d-omega pairing integral is generically nonzero."""
    freqs = [*background.omega_field.freqs, np.eye(background.n)[0]]
    return FormField(background.n, 1, modes=[
        FourierMode(rng.standard_normal(background.n), freq, float(rng.uniform(0, 2 * math.pi)))
        for freq in freqs])


def _defect_floor(defect) -> Check:
    """Off a calibrated patch its Theorem B defect must reach TOL_CALIB."""
    return Check("defect_integral", defect, TOL_CALIB, at_least=True)


def _test_variation_results(case, patch, rule, defect, keep, tol_point):
    chain = chain_consistency(case, patch, rule, nodes=rule.nodes[:8])
    # the defect can only miss its floor when it is below it, so only then is the
    # plane defect read
    calibrated = defect < TOL_CALIB and plane_defect(case, patch, rule) < TOL_CALIB
    results = {"chain_consistency": chain, "defect_integral": defect}
    checks = [Check("chain_consistency", chain, tol_point)]
    if not calibrated:
        checks.append(_defect_floor(defect))
    if case == "cayley" and keep:
        anomaly = cayley_anomaly(patch, rule)
        results.update(anomaly)
        checks.append(Check("trace_discrepancy_err", anomaly["trace_discrepancy_err"], tol_point))
        if patch.flat and calibrated:
            # criticality must fail by exactly the predicted (2/7)|V^W|^2 volume term
            vol = float(np.prod(patch.box.hi - patch.box.lo))
            results["kept_first_variation"] = CAYLEY_KEPT_TRACE * vol
            checks.append(Check("star_restriction_max", anomaly["star_restriction_max"],
                                STAR_RESTRICTION_TOL))
    return results, checks


# ---------------------------------------------------------------------------
# tolerances of the fixed checks, each with the worst value measured at the default
# order 8 and trials over CLI seeds 0-99 (smith: the catalog maps, 50 random triples each)
# |equality residual| / (|x|^2 |y|^2 |z|^2, times |w|^2 if coassociative) of
# identities; worst 1.8e-15 associative, 2.3e-15 coassociative.  An absolute
# bound failed on round-off: it grows with the norms (seed 53 read 1.09e-10)
EQUALITY_REL_TOL = 1e-13
# |star of the Cayley test-variation derivative| on those calibrated planes; worst 0
STAR_RESTRICTION_TOL = 1e-10
# |first variation| of minimal's flows on the flat t2-in-r4; worst 1.6e-9
FLAT_FIRST_VARIATION_TOL = 1e-8
# E >= Vol >= C on the catalog maps; worst Vol - E or C - Vol 4.4e-16
SMITH_CHAIN_TOL = 1e-10
# residuals that vanish (conformality, calibration); worst 4.4e-16, least nonzero 0.5
SMITH_RESIDUAL_TOL = 1e-10
# |E(conformally rescaled domain) - E| on map-holo; worst 0
SMITH_INVARIANCE_TOL = 1e-10
# E >= Vol >= C on the random triples; worst Vol - E or C - Vol -2.5e-3 (never violated)
SMITH_RANDOM_CHAIN_TOL = 1e-9
# |domain first variation| on map-holo; worst 0
SMITH_DOMAIN_TOL = 1e-8
# |energy route - volume route| of the target variation on map-holo; worst 4.4e-16
SMITH_TARGET_TOL = 1e-6


# ---------------------------------------------------------------------------
# smith suite

def _linear_map_patch(name, n, mat, offset=None):
    mat = np.asarray(mat, float)
    off = np.zeros(n) if offset is None else np.asarray(offset, float)
    return Patch(name, mat.shape[1], n, Box.unit(mat.shape[1]), False,
                 lambda xs: (xs @ mat.T + off, mat[None]))


# name; the axes of R^4 that the two columns of the linear map R^2 -> R^4 follow,
# and their scales; whether the map is expected to be Smith and conformal
_SMITH_MAPS = (
    ("map-holo", (0, 1), (1.0, 1.0), True, True),
    ("map-antiholo", (1, 0), (1.0, 1.0), False, True),
    ("map-wrong-plane", (0, 2), (1.0, 1.0), False, True),
    ("map-aniso", (0, 1), (1.0, 2.0), False, False),
    ("map-dilation", (0, 1), (1.5, 1.5), True, True),
)


def smith_catalog() -> list[tuple[str, MapTriple, dict]]:
    """Named map triples with expected characteristics."""
    um2 = standard_kit("um", m=2, k=1)
    eye_g = lambda x: np.eye(2)
    return [(name, MapTriple(_linear_map_patch(name, 4, np.eye(4)[:, axes] * scales),
                             eye_g, um2), {"smith": smith, "conformal": conformal})
            for name, axes, scales, smith, conformal in _SMITH_MAPS]


def random_triple(rng) -> MapTriple:
    um2 = standard_kit("um", m=2, k=1)
    a = 0.7 * rng.standard_normal((4, 2))
    b = rng.standard_normal(4)
    amp = 0.25 * rng.standard_normal(4)
    freq = rng.integers(-2, 3, size=2).astype(float)
    phase = float(rng.uniform(0, 2 * math.pi))

    def rows(xs):
        arg = 2 * math.pi * (xs @ freq) + phase
        return (xs @ a.T + b + np.sin(arg)[:, None] * amp,
                a + (2 * math.pi * np.cos(arg))[:, None, None] * np.outer(amp, freq))

    raw = rng.standard_normal((2, 2))
    spd = raw @ raw.T + 2 * np.eye(2)
    wob = float(rng.uniform(0.1, 0.4))

    def g_field(x):
        return spd * (1 + wob * math.sin(2 * math.pi * x[0]))

    return MapTriple(Patch("map-random", 2, 4, Box.unit(2), False, rows), g_field, um2)


def _energy_chain(triple: MapTriple, rule: QuadratureRule, tol: float):
    """The triple's (k-energy, k-volume, calibration integral) and the checks of
    E >= Vol >= C within ``tol``, whose values are E - Vol and Vol - C."""
    e_val = k_energy(triple, rule)
    v_val = k_volume(triple, rule)
    c_val = calibration_integral(triple, rule)
    return (e_val, v_val, c_val), [Check("k_energy", e_val - v_val, -tol, at_least=True),
                                   Check("k_volume", v_val - c_val, -tol, at_least=True)]


def cmd_smith(opts):
    seed, trials = opts["seed"], opts["trials"]
    rng = np.random.default_rng(seed)
    rule = QuadratureRule(Box.unit(2), opts["quad_order"])  # every map's domain

    catalog = smith_catalog()
    for name, triple, expect in catalog:
        (e_val, v_val, c_val), checks = _energy_chain(triple, rule, SMITH_CHAIN_TOL)
        conf, cal = smith_residual(triple, rule)
        checks.append(Check("conformality_residual", conf, SMITH_RESIDUAL_TOL,
                            at_least=not expect["conformal"]))
        if expect["smith"]:
            checks.append(Check("calibration_residual", cal, SMITH_RESIDUAL_TOL))
        else:  # not both residuals vanish; np.maximum keeps a NaN of either
            checks.append(Check("smith_residual", np.maximum(conf, cal), SMITH_RESIDUAL_TOL,
                                at_least=True))
        yield (f"smith-catalog-{name}", {"map": name},
               {"k_energy": e_val, "k_volume": v_val, "calibration_integral": c_val,
                "conformality_residual": conf, "calibration_residual": cal}, checks)

    chain = []
    for _ in range(trials):
        chain += _energy_chain(random_triple(rng), rule, SMITH_RANDOM_CHAIN_TOL)[1]
    # the largest Vol - E or C - Vol; np.max keeps a NaN
    worst_gap = float(np.max([0.0, *(-c.value for c in chain)]))
    yield "smith-random-chain", {"trials": trials}, {"worst_gap": worst_gap}, chain

    # conformal invariance and the two first-variation statements
    name, triple, _ = catalog[0]
    scaled = MapTriple(
        triple.patch,
        lambda x: (1 + 0.4 * math.sin(2 * math.pi * x[0]) * math.cos(x[1])) ** 2 * np.eye(2),
        triple.kit)
    inv_err = abs(k_energy(scaled, rule) - k_energy(triple, rule))
    yield ("smith-conformal-invariance", {"map": name}, {"error": inv_err},
           [Check("error", inv_err, SMITH_INVARIANCE_TOL)])

    h_field = SymTensorField.random(2, rng)
    crit = energy_first_variation_domain(triple, lambda x: h_field.value(x), rule)
    yield ("smith-domain-criticality", {"map": name}, {"first_variation": crit},
           [Check("first_variation", abs(crit), SMITH_DOMAIN_TOL)])

    hbar = SymTensorField.random(4, rng)
    tv = energy_first_variation_target(triple, hbar.value, rule)
    fam = ambient_family(hbar)
    afv = analytic_first_variation(triple.patch, fam, rule)
    gap = abs(tv - afv)
    yield ("smith-target-variation", {"map": name},
           {"energy_route": tv, "volume_route": afv, "gap": gap},
           [Check("gap", gap, SMITH_TARGET_TOL)])


# ---------------------------------------------------------------------------
# minimal suite

def cmd_minimal(opts):
    seed, count, order, tol_int = opts["seed"], opts["count"], opts["quad_order"], opts["tol_int"]
    seeds = np.random.SeedSequence(seed)  # one child per experiment, spawned as it starts

    curved = [make_patch("sphere"), make_patch("circle-r2"), make_patch("torus2-r3")]
    flat = make_patch("t2-in-r4")
    for i in range(count):
        child = seeds.spawn(1)[0]
        for patch in curved + [flat]:
            rng = np.random.default_rng(child)
            x = VectorField.random(patch.n, rng, with_linear=patch is not flat)
            out = minimal_comparison(patch, x, QuadratureRule(patch.box, order))
            first = (Check("analytic_first_variation", abs(out["analytic_first_variation"]),
                           FLAT_FIRST_VARIATION_TOL) if patch is flat
                     else Check("fd_vs_divergence", out["fd_vs_divergence"], tol_int))
            checks = [first, Check("analytic_vs_divergence", out["analytic_vs_divergence"], tol_int)]
            yield f"minimal-{patch.name}-{i:03d}", {"patch": patch.name, "index": i}, out, checks


def cmd_catalog(opts) -> int:
    listing = {
        "patches": catalog_patches(),
        "generators": list(GENERATORS),
        "cases": list(CASES),
        "smith_maps": [name for name, _, _ in smith_catalog()],
    }
    _write(json.dumps(listing, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument handling

@dataclass(frozen=True)
class Option:
    """One row of the option table: ``kind`` int (an integer >= ``lo``), float (a
    positive finite number), str (a path or name, or one of ``choices``) or bool
    (a flag).  A None default means unset; a ``required`` option must be set."""
    kind: type
    default: object
    help: str
    choices: tuple = ()
    lo: int = 0
    required: bool = False


_QUAD_ORDER = Option(int, 8, "quadrature points per axis", lo=1)
_TOL_INT = Option(float, TOL_INT, "tolerance of integrated checks")
_REPORT = {"seed": Option(int, 0, "random seed"),
           "out": Option(str, None, "write the report to this file, not stdout"),
           "format": Option(str, "jsonl", "report format", ("jsonl", "csv"))}

# Each subcommand's help, handler and options.  A subcommand with report options
# is a generator of experiments for _report; catalog prints and returns its exit
# code.  An option's flag is "--" and its key with dashes; its --config key is
# the key itself.
COMMANDS = {
    "identities": ("exact contraction identity suites", cmd_identities, {
        "case": Option(str, None, "one family only", ("g2", "sp7")),
        "trials": Option(int, 10_000, "random vectors per equality check", lo=1),
        **_REPORT}),
    "theorem": ("criticality experiments for one case", cmd_theorem, {
        "case": Option(str, None, "calibration case", CASES, required=True),
        "patch": Option(str, None, "catalog patch (default set by --case and --k)"),
        "generator": Option(str, "random", "variation generator", GENERATORS),
        "count": Option(int, 5, "experiments to run", lo=1),
        "quad_order": _QUAD_ORDER,
        "tol_point": Option(float, TOL_POINT, "tolerance of pointwise checks"),
        "tol_int": _TOL_INT,
        "k": Option(int, 1, "U(m) case: calibrate 2k-planes", lo=1),
        "closed_omega": Option(bool, False, "U(m) case: keep d omega = 0"),
        "keep_omega4_1": Option(bool, False, "Cayley case: keep the pure-trace part"),
        **_REPORT}),
    "smith": ("map-functional inequality and variation suite", cmd_smith, {
        "trials": Option(int, 50, "random map triples", lo=1),
        "quad_order": _QUAD_ORDER,
        **_REPORT}),
    "minimal": ("flow variations versus mean curvature", cmd_minimal, {
        "count": Option(int, 5, "random flows per patch", lo=1),
        "quad_order": _QUAD_ORDER,
        "tol_int": _TOL_INT,
        **_REPORT}),
    "catalog": ("list built-in patches and generators", cmd_catalog, {}),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _check(key: str, opt: Option, val) -> None:
    if val is None and opt.default is None and not opt.required:
        return
    if opt.choices:
        ok, want = val in opt.choices, f"one of {opt.choices}"
    elif opt.kind is float:
        ok, want = type(val) in (int, float) and 0 < val < math.inf, "a positive finite number"
    elif opt.kind is int:  # type(), not isinstance(): true is not an integer
        ok, want = type(val) is int and val >= opt.lo, f"an integer >= {opt.lo}"
    elif opt.kind is bool:
        ok, want = type(val) is bool, "true or false"
    else:  # an empty name or path names nothing
        ok, want = type(val) is str and val != "", "a non-empty string"
    if not ok:
        raise ConfigError(f"{_flag(key)} must be {want}, got {val!r}")


def validate_options(command: str, file_values=None, flags=None) -> MappingProxyType:
    """Read-only options of one subcommand: table defaults < ``file_values``
    (a --config file's JSON object) < ``flags``.  Raises ConfigError on an
    unknown key or a value that the option's table row does not allow."""
    table = COMMANDS[command][2]
    file_values = {} if file_values is None else file_values
    if not isinstance(file_values, dict):
        raise ConfigError(f"a config file must hold a JSON object, got {file_values!r}")
    unknown = sorted(set(file_values) - set(table))
    if unknown:
        raise ConfigError(f"unknown {command} option(s) in config: {', '.join(unknown)}")
    merged = {key: opt.default for key, opt in table.items()} | file_values | (flags or {})
    for key, opt in table.items():
        _check(key, opt, merged[key])
    return MappingProxyType(merged)


@lru_cache(maxsize=None)  # one parser per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caliblab",
        description="Calibration-geometry identity suites and variation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, table) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, opt in table.items():
            if opt.kind is bool:
                p.add_argument(_flag(key), dest=key, action="store_true", default=None,
                               help=opt.help)
            else:
                p.add_argument(_flag(key), dest=key, type=opt.kind,
                               choices=opt.choices or None, help=opt.help)
        if table:
            p.add_argument("--config", help="JSON file of option values; explicit flags win")
    return parser


def _read_config(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _check_writable(path: str) -> None:
    """Raise ConfigError unless a report can be written to path; creates nothing."""
    target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ConfigError(f"cannot write the report to --out {path}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _, handler, table = COMMANDS[args.command]
    flags = {key: val for key, val in vars(args).items() if key in table and val is not None}
    # bad input raises before a handler's first experiment; reports are written
    # last, so a rejected run leaves none behind
    try:
        file_values = _read_config(args.config) if getattr(args, "config", None) else None
        opts = validate_options(args.command, file_values, flags)
        if "format" not in opts:
            return handler(opts)
        if opts["out"]:  # an unwritable report path fails before any experiment runs
            _check_writable(opts["out"])
        return _report(handler(opts), opts["out"], opts["format"])
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except QuadratureSizeError as exc:
        print(f"error: --quad-order: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
