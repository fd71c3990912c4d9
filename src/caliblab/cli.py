"""Command-line front end: identity suites, theorem experiments, Smith and
minimal-submanifold suites, and machine-readable reports.

Reports are line-delimited JSON records (schema version 1), deterministic for
a fixed (config, seed) apart from the wall_ms field.  Exit codes: 0 all pass,
1 assertion failures, 2 configuration errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .fields import FormField, SymTensorField, UmBackground, VectorField
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
    circle_patch,
    flat_plane,
    graph_patch,
    sphere_patch,
    torus_patch,
)
from .variation import (
    CASES,
    TOL_INT,
    TOL_POINT,
    ambient_family,
    analytic_first_variation,
    assoc_family_from_beta,
    cayley_anomaly,
    cayley_family_from_gamma,
    chain_consistency,
    coassoc_family_from_gamma,
    minimal_comparison,
    theorem_A_experiment,
    theorem_B_defect,
    um_family_from_alpha,
)

SCHEMA_VERSION = 1

DEFAULT_PATCH = {
    "um": "t2-in-r6",
    "associative": "t3-in-r7",
    "coassociative": "t4-in-r7",
    "cayley": "t4-in-r8",
}

GENERATOR_DEGREE = {"um": 1, "associative": 2, "coassociative": 3, "cayley": 3}


class ConfigError(ValueError):
    pass


def _check_numbers(opts: dict) -> None:
    """Reject numeric options outside their range instead of replacing them."""
    for key, val in opts.items():
        flag = "--" + key.replace("_", "-")
        if key in ("seed", "count", "trials", "quad_order", "k"):
            lo = 0 if key == "seed" else 1
            if isinstance(val, bool) or not isinstance(val, int) or val < lo:
                raise ConfigError(f"{flag} must be an integer >= {lo}, got {val!r}")
        elif key in ("tol_point", "tol_int"):
            if isinstance(val, bool) or not isinstance(val, (int, float)) \
                    or not (math.isfinite(val) and val > 0):
                raise ConfigError(f"{flag} must be a positive finite number, got {val!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated inputs of one theorem-experiment batch."""
    case: str
    patch: str
    generator: str = "random"
    count: int = 5
    quad_order: int = 8
    tol_point: float = TOL_POINT
    tol_int: float = TOL_INT
    seed: int = 0
    k: int = 1
    closed_omega: bool = False
    keep_omega4_1: bool = False

    def __post_init__(self):
        if self.case not in CASES:
            raise ConfigError(f"--case must be one of {CASES}")
        if self.generator not in ("random", "test-variation"):
            raise ConfigError(f"unknown generator {self.generator!r}")
        _check_numbers(vars(self))
        if self.keep_omega4_1 and self.case != "cayley":
            raise ConfigError("--keep-omega4-1 only applies to the cayley case")
        make_patch(self.patch)  # referenced catalog ids must exist

    def make_patch(self) -> Patch:
        return make_patch(self.patch)


@dataclass(frozen=True)
class ReportRecord:
    """One experiment's report line; round-trips losslessly through JSON."""
    schema: int
    id: str
    inputs: dict
    results: dict
    passed: bool
    wall_ms: float

    def to_dict(self) -> dict:
        return {"schema": self.schema, "id": self.id, "inputs": _sanitize(self.inputs),
                "results": _sanitize(self.results), "pass": self.passed,
                "wall_ms": self.wall_ms}

    @staticmethod
    def from_dict(data: dict) -> "ReportRecord":
        return ReportRecord(data["schema"], data["id"], data["inputs"],
                            data["results"], data["pass"], data["wall_ms"])


# ---------------------------------------------------------------------------
# patch registry

def make_patch(name: str) -> Patch:
    fixed = {
        "t2-in-r4": lambda: flat_plane((1, 2), 4, name="t2-in-r4"),
        "t2-in-r6": lambda: flat_plane((1, 2), 6, name="t2-in-r6"),
        "t4-in-r6": lambda: flat_plane((1, 2, 3, 4), 6, name="t4-in-r6"),
        "t3-in-r7": lambda: flat_plane((1, 2, 3), 7, name="t3-in-r7"),
        "t4-in-r7": lambda: flat_plane((4, 5, 6, 7), 7, name="t4-in-r7"),
        "t4-in-r8": lambda: flat_plane((1, 2, 3, 4), 8, name="t4-in-r8"),
        "circle-r2": lambda: circle_patch(1.0),
        "sphere": lambda: sphere_patch(1.0),
        "torus2-r3": lambda: torus_patch(),
        "graph-assoc-r7": lambda: graph_patch(
            (1, 2, 3), 7, [(4, 0.1, (1, 0, 1), 0.3), (6, 0.07, (0, 1, -1), 1.1)],
            "graph-assoc-r7"),
        "graph-coassoc-r7": lambda: graph_patch(
            (4, 5, 6, 7), 7, [(1, 0.1, (1, 1, 0, 0), 0.4), (3, 0.06, (0, 1, 0, -1), 2.0)],
            "graph-coassoc-r7"),
        "graph-cayley-r8": lambda: graph_patch(
            (1, 2, 3, 4), 8, [(5, 0.1, (1, 0, 1, 0), 0.9), (8, 0.05, (0, 1, -1, 0), 0.2)],
            "graph-cayley-r8"),
        "graph-um-r6": lambda: graph_patch(
            (1, 2), 6, [(3, 0.12, (1, 1), 0.4), (5, 0.08, (2, -1), 1.2)], "graph-um-r6"),
    }
    if name in fixed:
        return fixed[name]()
    if name.startswith("plane-"):
        body = name[len("plane-"):]
        axes_part, _, dim_part = body.partition("-r")
        try:
            axes = tuple(int(c) for c in axes_part)
            return flat_plane(axes, int(dim_part), name=name)
        except ValueError as exc:  # covers bad digits and dimension errors
            raise KeyError(f"malformed plane patch {name!r}: {exc}") from exc
    raise KeyError(f"unknown patch {name!r}")


def catalog_patches() -> list[str]:
    return ["t2-in-r4", "t2-in-r6", "t4-in-r6", "t3-in-r7", "t4-in-r7", "t4-in-r8",
            "graph-um-r6", "graph-assoc-r7", "graph-coassoc-r7", "graph-cayley-r8",
            "circle-r2", "sphere", "torus2-r3", "plane-<axes>-r<n>"]


# ---------------------------------------------------------------------------
# records and output

def _record(exp_id: str, inputs: dict, results: dict, passed: bool,
            wall_ms: float) -> ReportRecord:
    return ReportRecord(SCHEMA_VERSION, exp_id, inputs, results, bool(passed),
                        round(wall_ms, 3))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _write_records(records: list[ReportRecord], out: str | None, fmt: str) -> None:
    records = sorted(records, key=lambda r: r.id)
    if fmt == "jsonl":
        text = "".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records)
    else:
        buf = io.StringIO()
        fields = ["id", "pass", "wall_ms"]
        scalar_keys = sorted({k for r in records for k, v in r.results.items()
                              if isinstance(v, (int, float, bool, np.floating))})
        writer = csv.writer(buf)
        writer.writerow(fields + scalar_keys)
        for r in records:
            row = [r.id, r.passed, r.wall_ms]
            row += [_sanitize(r.results.get(k, "")) for k in scalar_keys]
            writer.writerow(row)
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# identities

def cmd_identities(opts) -> int:
    records = []
    case = opts["case"]
    corrupt = opts["corrupt_structure_constant"]
    g2 = standard_kit("associative")
    sp = standard_kit("cayley")
    phi, psi = g2.phi_tensor.copy(), g2.psi_tensor.copy()
    Phi = sp.Phi_tensor.copy()
    if corrupt:
        phi[0, 1, 2] = -phi[0, 1, 2]
        Phi[0, 1, 2, 3] = -Phi[0, 1, 2, 3]

    def identity_records(name_prefix, violations):
        for fam, vio in violations.items():
            t0 = time.perf_counter()
            records.append(_record(
                f"identity-{name_prefix}-{fam}", {"kind": "identity", "family": fam},
                {"max_violation": int(vio)}, vio == 0,
                1000 * (time.perf_counter() - t0)))

    if case in (None, "g2"):
        identity_records("g2", g2_identity_violations(phi, psi))
    if case in (None, "sp7"):
        identity_records("sp7", spin7_identity_violations(Phi))
    if case is None:
        rng = np.random.default_rng(opts["seed"])
        trials = opts["trials"]
        t0 = time.perf_counter()
        xs = rng.standard_normal((4, trials, 7))
        worst_a = float(np.abs(associative_equality_residuals(g2, *xs[:3])).max())
        records.append(_record("equality-associative", {"kind": "equality", "trials": trials},
                               {"max_residual": worst_a}, worst_a < 1e-10,
                               1000 * (time.perf_counter() - t0)))
        t0 = time.perf_counter()
        worst_c = float(np.abs(coassociative_equality_residuals(g2, *xs)).max())
        records.append(_record("equality-coassociative", {"kind": "equality", "trials": trials},
                               {"max_residual": worst_c}, worst_c < 1e-10,
                               1000 * (time.perf_counter() - t0)))
    _write_records(records, opts["out"], opts["format"])
    return 0 if all(r.passed for r in records) else 1


# ---------------------------------------------------------------------------
# theorem experiments

def _random_generator(case: str, n: int, rng, tangent_axes) -> FormField:
    deg = GENERATOR_DEGREE[case]
    freq_axes = tangent_axes if case == "cayley" else None
    return FormField.random_fourier(n, deg, rng, n_modes=3, frequency_axes=freq_axes)


def _family_for(case: str, gen: FormField, background=None, k: int = 1,
                keep_omega4_1: bool = False):
    if case == "um":
        return um_family_from_alpha(gen, background, k)
    if case == "associative":
        return assoc_family_from_beta(gen, standard_kit("associative"))
    if case == "coassociative":
        return coassoc_family_from_gamma(gen, standard_kit("coassociative"))
    return cayley_family_from_gamma(gen, standard_kit("cayley"), keep_omega4_1)


def cmd_theorem(opts) -> int:
    try:
        case = opts["case"]
        if case not in CASES:
            raise ConfigError(f"--case must be one of {CASES}")
        patch_name = opts["patch"]
        if patch_name is None:
            patch_name = "t4-in-r6" if case == "um" and opts["k"] == 2 else DEFAULT_PATCH[case]
        config = ExperimentConfig(
            case=case, patch=patch_name, generator=opts["generator"], count=opts["count"],
            quad_order=opts["quad_order"], tol_point=opts["tol_point"],
            tol_int=opts["tol_int"], seed=opts["seed"], k=opts["k"],
            closed_omega=opts["closed_omega"], keep_omega4_1=opts["keep_omega4_1"],
        )
        patch = config.make_patch()
        if case == "um" and patch.k != 2 * config.k:
            raise ConfigError(f"patch dimension {patch.k} does not match --k {config.k}")
    except (ConfigError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rule = QuadratureRule(patch.box, config.quad_order)
    background = None
    if case == "um":
        m = patch.n // 2
        rng0 = np.random.default_rng(config.seed)
        if config.closed_omega or config.k == 1:
            background = UmBackground.flat(m)
        else:
            tangent_axes = tuple(a + 1 for a in patch.axes) if patch.axes else None
            background = UmBackground.wavy(m, rng0, eps=0.01, frequency_axes=tangent_axes)

    seeds = np.random.SeedSequence(config.seed).spawn(config.count)
    records = []
    tangent_axes = tuple(a + 1 for a in patch.axes) if patch.axes \
        else tuple(range(1, patch.k + 1))

    for i in range(config.count):
        t0 = time.perf_counter()
        rng = np.random.default_rng(seeds[i])
        inputs = {"case": case, "patch": patch.name, "generator": config.generator,
                  "index": i, "quad_order": rule.order, "seed": config.seed,
                  "keep_omega4_1": config.keep_omega4_1}
        if config.generator == "test-variation":
            results, passed = _test_variation_results(
                case, patch, rule, config.keep_omega4_1, config.tol_point)
        else:
            gen = _random_generator(case, patch.n, rng, tangent_axes)
            if case == "um" and background is not None and not background.is_flat:
                gen = _resonant_um_generator(background, rng)
            fam = _family_for(case, gen, background, config.k, config.keep_omega4_1)
            verdict = theorem_A_experiment(case, patch, fam, rule,
                                           config.tol_point, config.tol_int)
            results = verdict.scalars()
            results["chain_consistency"] = chain_consistency(
                case, patch, rule, nodes=rule.nodes[:1])
            passed = verdict.all_pass and results["chain_consistency"] < config.tol_point
        records.append(_record(f"theorem-{case}-{patch.name}-{config.generator}-{i:03d}",
                               inputs, results, passed, 1000 * (time.perf_counter() - t0)))

    _write_records(records, opts["out"], opts["format"])
    return 0 if all(r.passed for r in records) else 1


def _resonant_um_generator(background: UmBackground, rng) -> FormField:
    """Fourier modes sharing the background wave frequencies, so the
    d-omega pairing integral is generically nonzero."""
    from .fields import FourierMode

    modes = []
    for wlist in background.waves:
        for _, freq, _ in wlist:
            modes.append(FourierMode(rng.standard_normal(background.n),
                                     freq.copy(), float(rng.uniform(0, 2 * math.pi))))
    modes.append(FourierMode(rng.standard_normal(background.n),
                             np.eye(background.n)[0].copy(),
                             float(rng.uniform(0, 2 * math.pi))))
    return FormField(background.n, 1, modes=modes)


def _test_variation_results(case, patch, rule, keep, tol_point):
    nodes = rule.nodes[:1] if patch.flat else rule.nodes[: min(8, len(rule.nodes))]
    chain = chain_consistency(case, patch, rule, nodes=nodes)
    results = {"chain_consistency": chain}
    passed = chain < tol_point
    defect = theorem_B_defect(case, patch, rule)
    results["defect_integral"] = defect
    if case == "cayley" and keep:
        small = QuadratureRule(patch.box, 2) if patch.flat else rule
        anomaly = cayley_anomaly(patch, small)
        results.update(anomaly)
        vol = float(np.prod(patch.box.hi - patch.box.lo)) if patch.flat else None
        if vol is not None and defect < 1e-10:
            # criticality must fail by exactly the predicted (2/7)|V^W|^2 volume term
            results["kept_first_variation"] = (2.0 / 7.0) * vol
            passed = passed and anomaly["trace_discrepancy_err"] < tol_point \
                and anomaly["star_restriction_max"] < 1e-10
        else:
            passed = passed and anomaly["trace_discrepancy_err"] < tol_point
    return results, passed


# ---------------------------------------------------------------------------
# smith suite

def _linear_map_patch(name, n, mat, offset=None):
    mat = np.asarray(mat, float)
    off = np.zeros(n) if offset is None else np.asarray(offset, float)
    return Patch(name, mat.shape[1], n, Box.unit(mat.shape[1]), False,
                 lambda x: mat @ x + off, lambda x: mat, None)


def smith_catalog() -> list[tuple[str, MapTriple, dict]]:
    """Named map triples with expected characteristics."""
    um2 = standard_kit("um", m=2, k=1)
    eye_g = lambda x: np.eye(2)
    e = np.eye(4)
    entries = []
    holo = _linear_map_patch("map-holo", 4, np.stack([e[0], e[1]], axis=1))
    entries.append(("map-holo", MapTriple(holo, eye_g, um2),
                    {"smith": True, "conformal": True}))
    anti = _linear_map_patch("map-antiholo", 4, np.stack([e[1], e[0]], axis=1))
    entries.append(("map-antiholo", MapTriple(anti, eye_g, um2),
                    {"smith": False, "conformal": True}))
    wrong = _linear_map_patch("map-wrong-plane", 4, np.stack([e[0], e[2]], axis=1))
    entries.append(("map-wrong-plane", MapTriple(wrong, eye_g, um2),
                    {"smith": False, "conformal": True}))
    aniso = _linear_map_patch("map-aniso", 4, np.stack([e[0], 2 * e[1]], axis=1))
    entries.append(("map-aniso", MapTriple(aniso, eye_g, um2),
                    {"smith": False, "conformal": False}))
    dil = _linear_map_patch("map-dilation", 4, 1.5 * np.stack([e[0], e[1]], axis=1))
    entries.append(("map-dilation", MapTriple(dil, eye_g, um2),
                    {"smith": True, "conformal": True}))
    return entries


def random_triple(rng) -> MapTriple:
    um2 = standard_kit("um", m=2, k=1)
    a = 0.7 * rng.standard_normal((4, 2))
    b = rng.standard_normal(4)
    amp = 0.25 * rng.standard_normal(4)
    freq = rng.integers(-2, 3, size=2).astype(float)
    phase = float(rng.uniform(0, 2 * math.pi))

    def ev(x):
        return a @ x + b + amp * math.sin(2 * math.pi * float(freq @ x) + phase)

    def jac(x):
        return a + 2 * math.pi * math.cos(2 * math.pi * float(freq @ x) + phase) \
            * np.outer(amp, freq)

    raw = rng.standard_normal((2, 2))
    spd = raw @ raw.T + 2 * np.eye(2)
    wob = float(rng.uniform(0.1, 0.4))

    def g_field(x):
        return spd * (1 + wob * math.sin(2 * math.pi * x[0]))

    return MapTriple(Patch("map-random", 2, 4, Box.unit(2), False, ev, jac, None),
                     g_field, um2)


def cmd_smith(opts) -> int:
    seed, trials, order = opts["seed"], opts["trials"], opts["quad_order"]
    records = []
    rng = np.random.default_rng(seed)

    for name, triple, expect in smith_catalog():
        t0 = time.perf_counter()
        rule = QuadratureRule(triple.patch.box, order)
        e_val = k_energy(triple, rule)
        v_val = k_volume(triple, rule)
        c_val = calibration_integral(triple, rule)
        conf, cal = smith_residual(triple, rule)
        chain_ok = e_val >= v_val - 1e-10 and v_val >= c_val - 1e-10
        smith_ok = (conf < 1e-10 and cal < 1e-10) == expect["smith"]
        conf_ok = (conf < 1e-10) == expect["conformal"]
        records.append(_record(
            f"smith-catalog-{name}", {"map": name},
            {"k_energy": e_val, "k_volume": v_val, "calibration_integral": c_val,
             "conformality_residual": conf, "calibration_residual": cal},
            chain_ok and smith_ok and conf_ok, 1000 * (time.perf_counter() - t0)))

    t0 = time.perf_counter()
    worst_gap = 0.0
    ok = True
    for _ in range(trials):
        triple = random_triple(rng)
        rule = QuadratureRule(triple.patch.box, order)
        e_val = k_energy(triple, rule)
        v_val = k_volume(triple, rule)
        c_val = calibration_integral(triple, rule)
        ok = ok and e_val >= v_val - 1e-9 and v_val >= c_val - 1e-9
        worst_gap = max(worst_gap, v_val - e_val, c_val - v_val)
    records.append(_record("smith-random-chain", {"trials": trials},
                           {"worst_gap": worst_gap}, ok,
                           1000 * (time.perf_counter() - t0)))

    # conformal invariance and the two first-variation statements
    name, triple, _ = smith_catalog()[0]
    rule = QuadratureRule(triple.patch.box, order)
    t0 = time.perf_counter()
    scaled = MapTriple(
        triple.patch,
        lambda x: (1 + 0.4 * math.sin(2 * math.pi * x[0]) * math.cos(x[1])) ** 2 * np.eye(2),
        triple.kit)
    inv_err = abs(k_energy(scaled, rule) - k_energy(triple, rule))
    records.append(_record("smith-conformal-invariance", {"map": name},
                           {"error": inv_err}, inv_err < 1e-10,
                           1000 * (time.perf_counter() - t0)))

    t0 = time.perf_counter()
    h_field = SymTensorField.random(2, rng)
    crit = energy_first_variation_domain(triple, lambda x: h_field.value(x), rule)
    records.append(_record("smith-domain-criticality", {"map": name},
                           {"first_variation": crit}, abs(crit) < 1e-8,
                           1000 * (time.perf_counter() - t0)))

    t0 = time.perf_counter()
    hbar = SymTensorField.random(4, rng)
    tv = energy_first_variation_target(triple, hbar.value, rule)
    fam = ambient_family(hbar)
    afv = analytic_first_variation(triple.patch, fam, rule)
    records.append(_record("smith-target-variation", {"map": name},
                           {"energy_route": tv, "volume_route": afv,
                            "gap": abs(tv - afv)}, abs(tv - afv) < 1e-6,
                           1000 * (time.perf_counter() - t0)))

    _write_records(records, opts["out"], opts["format"])
    return 0 if all(r.passed for r in records) else 1


# ---------------------------------------------------------------------------
# minimal suite

def cmd_minimal(opts) -> int:
    seed, count, order, tol_int = opts["seed"], opts["count"], opts["quad_order"], opts["tol_int"]
    records = []
    seeds = np.random.SeedSequence(seed).spawn(count)

    curved = [make_patch("sphere"), make_patch("circle-r2"), make_patch("torus2-r3")]
    flat = make_patch("t2-in-r4")
    for i in range(count):
        for patch in curved + [flat]:
            t0 = time.perf_counter()
            rng = np.random.default_rng(seeds[i])
            x = VectorField.random(patch.n, rng, with_linear=patch is not flat)
            out = minimal_comparison(patch, x, QuadratureRule(patch.box, order))
            if patch is flat:
                passed = abs(out["analytic_first_variation"]) < 1e-8
            else:
                passed = out["fd_vs_divergence"] < tol_int
            passed = passed and out["analytic_vs_divergence"] < tol_int
            records.append(_record(f"minimal-{patch.name}-{i:03d}",
                                   {"patch": patch.name, "index": i}, out, passed,
                                   1000 * (time.perf_counter() - t0)))
    _write_records(records, opts["out"], opts["format"])
    return 0 if all(r.passed for r in records) else 1


def cmd_catalog(opts) -> int:
    listing = {
        "patches": catalog_patches(),
        "generators": ["random", "test-variation"],
        "cases": list(CASES),
        "smith_maps": [name for name, _, _ in smith_catalog()],
    }
    sys.stdout.write(json.dumps(listing, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument handling

_DEFAULTS = {
    "identities": {"case": None, "seed": 0, "trials": 10_000,
                   "corrupt_structure_constant": False, "out": None, "format": "jsonl"},
    "theorem": {"case": None, "patch": None, "generator": "random", "count": 5,
                "quad_order": 8, "tol_point": TOL_POINT, "tol_int": TOL_INT,
                "seed": 0, "k": 1, "closed_omega": False, "keep_omega4_1": False,
                "out": None, "format": "jsonl"},
    "smith": {"seed": 0, "trials": 50, "quad_order": 8, "out": None, "format": "jsonl"},
    "minimal": {"seed": 0, "count": 5, "quad_order": 8, "tol_int": TOL_INT,
                "out": None, "format": "jsonl"},
    "catalog": {},
}


def _merged_options(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags."""
    merged = dict(_DEFAULTS[args.command])
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path) as fh:
            file_conf = json.load(fh)
        for key, val in file_conf.items():
            if key in merged:
                merged[key] = val
    for key in merged:
        val = getattr(args, key, None)
        if val is not None and val is not False:
            merged[key] = val
    return merged


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caliblab",
        description="Calibration-geometry identity suites and variation experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--format", choices=("jsonl", "csv"))
        p.add_argument("--config", help="JSON config file; explicit flags win")

    p = sub.add_parser("identities", help="exact contraction identity suites")
    p.add_argument("--case", choices=("g2", "sp7"))
    p.add_argument("--trials", type=int)
    p.add_argument("--corrupt-structure-constant", action="store_true",
                   dest="corrupt_structure_constant",
                   help="test hook: flip one structure constant")
    common(p)

    p = sub.add_parser("theorem", help="criticality experiments for one case")
    p.add_argument("--case", choices=CASES)
    p.add_argument("--patch")
    p.add_argument("--generator", choices=("random", "test-variation"))
    p.add_argument("--count", type=int)
    p.add_argument("--quad-order", type=int, dest="quad_order")
    p.add_argument("--tol-point", type=float, dest="tol_point")
    p.add_argument("--tol-int", type=float, dest="tol_int")
    p.add_argument("--k", type=int)
    p.add_argument("--closed-omega", action="store_true", dest="closed_omega")
    p.add_argument("--keep-omega4-1", action="store_true", dest="keep_omega4_1")
    common(p)

    p = sub.add_parser("smith", help="map-functional inequality and variation suite")
    p.add_argument("--trials", type=int)
    p.add_argument("--quad-order", type=int, dest="quad_order")
    common(p)

    p = sub.add_parser("minimal", help="flow variations versus mean curvature")
    p.add_argument("--count", type=int)
    p.add_argument("--quad-order", type=int, dest="quad_order")
    p.add_argument("--tol-int", type=float, dest="tol_int")
    common(p)

    sub.add_parser("catalog", help="list built-in patches and generators")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merged_options(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        _check_numbers(opts)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    handler = {
        "identities": cmd_identities,
        "theorem": cmd_theorem,
        "smith": cmd_smith,
        "minimal": cmd_minimal,
        "catalog": cmd_catalog,
    }[args.command]
    return handler(opts)


if __name__ == "__main__":
    sys.exit(main())
