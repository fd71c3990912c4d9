import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import flip_first_term

from caliblab import cli, structures

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    """cli.main(args) in this process, with the exit code, standard output and
    standard error of a finished `caliblab` process (argparse exits by SystemExit)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def parse_jsonl(text):
    return [json.loads(line) for line in text.strip().splitlines()]


def assert_config_error(proc):
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# a cheap valid theorem command line for --config values to break
THEOREM = ("theorem", "--case", "associative", "--quad-order", "2")


def strip_wall(records):
    out = []
    for r in records:
        r = dict(r)
        r.pop("wall_ms", None)
        out.append(r)
    return out


class TestIdentitiesCommand:
    def test_default_run(self):
        proc = run_cli("identities")
        assert proc.returncode == 0
        records = parse_jsonl(proc.stdout)
        families = [r for r in records if r["inputs"].get("kind") == "identity"]
        assert len(families) == 8
        assert all(r["pass"] for r in records)

    def test_g2_filter(self):
        proc = run_cli("identities", "--case", "g2")
        records = parse_jsonl(proc.stdout)
        assert len(records) == 6
        assert all(r["id"].startswith("identity-g2") for r in records)

    def test_equality_bound_is_relative(self):
        # an absolute 1e-10 failed this seed on round-off that grows with the norms
        proc = run_cli("identities", "--seed", "53")
        assert proc.returncode == 0
        rec = {r["id"]: r for r in parse_jsonl(proc.stdout)}["equality-coassociative"]
        assert rec["results"]["max_residual"] > 1e-10
        assert rec["results"]["max_relative_residual"] < cli.EQUALITY_REL_TOL

    def test_chunked_equality_draw_bounds_memory(self, monkeypatch, capsys):
        # the equality vectors are drawn and checked a chunk at a time, so the
        # traced peak stays under a bound that one draw of every trial exceeds
        import tracemalloc

        from caliblab import cli

        def peak(chunk):
            monkeypatch.setattr(cli, "EQUALITY_CHUNK", chunk)
            tracemalloc.start()
            try:
                rc = cli.main(["identities", "--trials", "4000"])
                return rc, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cli.main(["identities", "--trials", "10"])  # builds the cached kit tables
        capsys.readouterr()
        rc, chunked = peak(400)
        records = [r for r in parse_jsonl(capsys.readouterr().out)
                   if r["id"].startswith("equality-")]
        assert rc == 0 and len(records) == 2 and all(r["pass"] for r in records)
        assert all(r["inputs"]["trials"] == 4000 and r["wall_ms"] > 0 for r in records)
        bound = 1_000_000
        assert chunked < bound
        assert peak(4000)[1] > bound


class TestTheoremCommand:
    def test_associative_default(self):
        proc = run_cli("theorem", "--case", "associative", "--patch", "t3-in-r7",
                       "--generator", "random", "--seed", "7", "--count", "2")
        assert proc.returncode == 0
        for r in parse_jsonl(proc.stdout):
            assert abs(r["results"]["analytic_first_variation"]) < 1e-8
            assert r["pass"]

    def test_cayley_keep_flag(self):
        proc = run_cli("theorem", "--case", "cayley", "--keep-omega4-1",
                       "--generator", "test-variation", "--count", "1")
        assert proc.returncode == 0
        rec = parse_jsonl(proc.stdout)[0]
        assert rec["results"]["trace_discrepancy_err"] < 1e-8
        assert rec["results"]["star_restriction_max"] < 1e-10
        assert rec["results"]["kept_first_variation"] == pytest.approx(2.0 / 7.0)

    def test_um_closed_omega(self):
        proc = run_cli("theorem", "--case", "um", "--k", "2", "--patch", "t4-in-r6",
                       "--closed-omega", "--count", "1", "--quad-order", "6")
        assert proc.returncode == 0
        rec = parse_jsonl(proc.stdout)[0]
        assert abs(rec["results"]["analytic_first_variation"]) < 1e-6

    def test_bad_case_exits_2(self):
        proc = run_cli("theorem", "--case", "nonsense")
        assert proc.returncode == 2

    def test_unknown_patch_exits_2(self):
        proc = run_cli("theorem", "--case", "associative", "--patch", "no-such-patch")
        assert proc.returncode == 2

    @pytest.mark.parametrize("patch,line", [
        ("nope", "error: unknown patch 'nope'"),
        ("plane-1x-r6", "error: malformed plane patch 'plane-1x-r6': "
                        "invalid literal for int() with base 10: 'x'"),
    ])
    def test_patch_error_line(self, patch, line):
        proc = run_cli("theorem", "--case", "um", "--patch", patch)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", line + "\n")

    def test_malformed_plane_exits_2(self):
        proc = run_cli("theorem", "--case", "associative", "--patch", "plane-xy-r7")
        assert proc.returncode == 2
        proc = run_cli("theorem", "--case", "associative", "--patch", "plane-129-r7")
        assert proc.returncode == 2

    def test_custom_plane_patch_accepted(self):
        # the criticality check needs the default order: coarse rules cannot
        # resolve the mean-zero trigonometric integrands to 1e-6
        proc = run_cli("theorem", "--case", "associative", "--patch", "plane-145-r7",
                       "--count", "1")
        assert proc.returncode == 0
        rec = parse_jsonl(proc.stdout)[0]
        assert rec["results"]["calibrated"] is True

    def test_non_calibrated_record_checks_its_defect(self, monkeypatch):
        # off a calibrated plane the record's witness is its positive defect,
        # which the request computes and checks: a vanishing one fails the run,
        # whatever the chain check reads
        args = ("theorem", "--case", "associative", "--patch", "plane-124-r7", "--count", "1")
        rec = parse_jsonl(run_cli(*args).stdout)[0]
        assert rec["pass"] is True and rec["results"]["calibrated"] is False
        monkeypatch.setattr(cli, "theorem_B_defect", lambda case, patch, rule: 0.0)
        proc = run_cli(*args)
        assert proc.returncode == 1
        rec = parse_jsonl(proc.stdout)[0]
        assert rec["pass"] is False and rec["results"]["defect_integral"] == 0.0
        assert rec["results"]["chain_consistency"] < 1e-8

    def test_non_calibrated_test_variation_checks_its_defect(self, monkeypatch):
        # a test-variation record off a calibrated plane checks its defect too,
        # not only the chain check
        args = ("theorem", "--case", "associative", "--patch", "plane-124-r7",
                "--generator", "test-variation", "--count", "1")
        assert run_cli(*args).returncode == 0
        monkeypatch.setattr(cli, "theorem_B_defect", lambda case, patch, rule: 0.0)
        proc = run_cli(*args)
        assert proc.returncode == 1
        rec = parse_jsonl(proc.stdout)[0]
        assert rec["pass"] is False and rec["results"]["defect_integral"] == 0.0

    @pytest.mark.parametrize("args", [
        ("--case", "associative", "--patch", "t3-in-r7", "--generator", "random"),
        ("--case", "associative", "--patch", "t3-in-r7", "--generator", "test-variation"),
        ("--case", "um", "--patch", "graph-um-r6", "--generator", "random"),
        ("--case", "um", "--patch", "graph-um-r6", "--generator", "test-variation"),
        ("--case", "cayley", "--generator", "test-variation", "--keep-omega4-1"),
    ])
    def test_patch_work_runs_once_per_request(self, monkeypatch, args):
        # the defect, the chain check and the Cayley anomaly depend only on the
        # patch, so --count 3 computes each once, whichever module calls it
        from caliblab import variation

        calls = {}
        for name in ("theorem_B_defect", "chain_consistency", "cayley_anomaly"):
            def counted(*a, _fn=getattr(variation, name), _name=name, **kw):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*a, **kw)
            for module in (cli, variation):
                monkeypatch.setattr(module, name, counted)
        order = ("--quad-order", "4") if "graph-um-r6" in args else ()
        proc = run_cli("theorem", *args, *order, "--count", "3")
        assert proc.returncode == 0
        keep = "--keep-omega4-1" in args
        assert calls == {"theorem_B_defect": 1, "chain_consistency": 1,
                         **({"cayley_anomaly": 1} if keep else {})}
        records = parse_jsonl(proc.stdout)
        assert [r["inputs"]["index"] for r in records] == [0, 1, 2]
        for r in records:
            for key in ("id", "wall_ms"):
                r.pop(key)
            r["inputs"].pop("index")
        if "random" in args:  # each experiment draws its own generator
            assert len({json.dumps(r["results"], sort_keys=True) for r in records}) == 3
            records = [{name: r["results"][name]
                        for name in ("defect_integral", "chain_consistency")}
                       for r in records]
        assert records[1:] == records[:-1]

    def test_keep_flag_wrong_case_exits_2(self):
        proc = run_cli("theorem", "--case", "um", "--keep-omega4-1")
        assert proc.returncode == 2

    @pytest.mark.parametrize("args", [
        ("theorem", "--case", "associative", "--count", "0"),
        ("theorem", "--case", "associative", "--quad-order", "0"),
        ("theorem", "--case", "associative", "--tol-point", "0"),
        ("theorem", "--case", "associative", "--tol-point", "nan"),
        ("theorem", "--case", "associative", "--tol-int", "0"),
        ("theorem", "--case", "associative", "--seed", "-1"),
        ("minimal", "--count", "-2"),
        ("identities", "--trials", "-5"),
        ("smith", "--quad-order", "0"),
        # the patch must fit the case's structure kit
        ("theorem", "--case", "um", "--patch", "plane-12-r7"),
        ("theorem", "--case", "um", "--k", "3", "--patch", "plane-123456-r6"),
        ("theorem", "--case", "um", "--patch", "plane-12-r2"),
        ("theorem", "--case", "associative", "--patch", "sphere"),
        ("theorem", "--case", "cayley", "--patch", "t3-in-r7"),
        ("theorem", "--case", "coassociative", "--patch", "t3-in-r7"),
        # an unwritable report path fails before any experiment runs
        ("theorem", "--case", "associative", "--out", "/nonexistent/dir/x.jsonl"),
        # a rejected run leaves no report file behind
        ("theorem", "--case", "associative", "--patch", "sphere", "--out", "{tmp}/r.jsonl"),
        ("theorem", "--case", "um", "--keep-omega4-1", "--out", "{tmp}/r.jsonl"),
        ("theorem", "--case", "associative", "--patch", "nope", "--out", "{tmp}/r.jsonl"),
        ("minimal", "--count", "-2", "--out", "{tmp}/r.jsonl"),
        ("theorem", "--case", "associative", "--out", "{tmp}"),
        # a rule above the node cap is refused before its grid is built
        ("theorem", "--case", "cayley", "--quad-order", "200", "--out", "{tmp}/r.jsonl"),
        ("minimal", "--quad-order", "1001"),
        # the exterior algebra stops at R^8
        ("theorem", "--case", "um", "--patch", "plane-12-r10", "--count", "1"),
        ("theorem", "--case", "um", "--k", "2", "--patch", "plane-1234-r10"),
        ("theorem", "--case", "um", "--patch", "plane-12-r10", "--generator", "test-variation"),
        # an empty report path names no file; it is not a request for stdout
        ("theorem", "--case", "associative", "--count", "1", "--out", ""),
        # the U(m) options off the U(m) case
        ("theorem", "--case", "cayley", "--k", "3"),
        ("theorem", "--case", "associative", "--closed-omega"),
        ("theorem", "--case", "coassociative", "--k", "2", "--out", "{tmp}/r.jsonl"),
    ])
    def test_out_of_range_option_exits_2(self, tmp_path, args):
        assert_config_error(run_cli(*(a.replace("{tmp}", str(tmp_path)) for a in args)))
        assert list(tmp_path.iterdir()) == []  # not even an empty report file

    @pytest.mark.parametrize("command,conf", [
        (("identities",), {"case": "foo"}),
        (THEOREM, {"format": "xml"}),
        (THEOREM, {"cuont": 3}),
        (THEOREM, {"patch": 7}),
        (THEOREM, [1, 2]),
        (THEOREM, {"closed_omega": "no"}),
        (THEOREM, {"out": 1}),
        (THEOREM, {"count": "3"}),
        (THEOREM, {"out": ""}),
        (THEOREM, {"k": 3}),
        (THEOREM, {"closed_omega": True}),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, command, conf):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        assert_config_error(run_cli(*command, "--config", str(path)))


class TestDeterminismAndFormats:
    def test_byte_identical_given_seed(self):
        args = ("theorem", "--case", "associative", "--count", "2",
                "--seed", "11", "--quad-order", "4")
        a = run_cli(*args)
        b = run_cli(*args)
        ra = strip_wall(parse_jsonl(a.stdout))
        rb = strip_wall(parse_jsonl(b.stdout))
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)

    def test_records_sorted_by_id(self):
        proc = run_cli("theorem", "--case", "coassociative", "--count", "3",
                       "--quad-order", "4")
        ids = [r["id"] for r in parse_jsonl(proc.stdout)]
        assert ids == sorted(ids)

    def test_csv_output(self, tmp_path):
        out = tmp_path / "report.csv"
        proc = run_cli("identities", "--case", "sp7", "--format", "csv",
                       "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("id,pass,wall_ms")
        assert len(lines) == 3

    def test_jsonl_roundtrip(self, tmp_path):
        out = tmp_path / "report.jsonl"
        run_cli("identities", "--case", "g2", "--out", str(out))
        records = parse_jsonl(out.read_text())
        assert len(records) == 6
        # serialization round-trips losslessly
        for r in records:
            assert json.loads(json.dumps(r)) == r

    def test_config_file_and_flag_priority(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"case": "g2", "format": "jsonl"}))
        proc = run_cli("identities", "--config", str(conf))
        assert len(parse_jsonl(proc.stdout)) == 6
        # explicit flag wins over the file setting
        proc = run_cli("identities", "--config", str(conf), "--case", "sp7")
        records = parse_jsonl(proc.stdout)
        assert len(records) == 2
        assert all(r["id"].startswith("identity-sp7") for r in records)

    def test_schema_version_present(self):
        proc = run_cli("identities", "--case", "sp7")
        for r in parse_jsonl(proc.stdout):
            assert r["schema"] == 1


class TestRecordTypes:
    @pytest.mark.parametrize("args,code", [
        (("identities", "--trials", "10"), 0),
        (("identities", "--trials", "10"), 1),  # under a wrong sign of phi
        (("theorem", "--case", "cayley", "--count", "2"), 0),
        (("smith", "--trials", "2"), 0),
        (("minimal", "--count", "1"), 0),
    ])
    def test_report_format(self, args, code, convention):
        if code == 1:
            flipped = flip_first_term(structures.G2_PHI_TERMS)
            convention(structures, "G2_PHI_TERMS", None, flipped)
        proc = run_cli(*args)
        lines = proc.stdout.splitlines()
        records = [json.loads(line) for line in lines]
        assert lines == [json.dumps(r, sort_keys=True) for r in records]
        for r in records:
            assert set(r) == {"schema", "id", "inputs", "results", "pass", "wall_ms"}
            assert r["wall_ms"] >= 0
        ids = [r["id"] for r in records]
        assert ids == sorted(ids)
        assert proc.returncode == code == (0 if all(r["pass"] for r in records) else 1)

    def test_experiment_config_validation(self):
        from caliblab.cli import ConfigError, theorem_patch, validate_options

        good = validate_options("theorem", {"case": "cayley", "patch": "t4-in-r8",
                                            "keep_omega4_1": True})
        assert theorem_patch(good).n == 8
        with pytest.raises(ConfigError):
            validate_options("theorem", {"case": "nonsense", "patch": "t3-in-r7"})
        with pytest.raises(ConfigError):
            validate_options("theorem", {"case": "associative", "patch": "t3-in-r7",
                                         "tol_int": 0.0})
        with pytest.raises(ConfigError):
            theorem_patch(validate_options("theorem", {"case": "um", "patch": "t2-in-r6",
                                                       "keep_omega4_1": True}))
        with pytest.raises(ConfigError):
            theorem_patch(validate_options("theorem", {"case": "associative",
                                                       "patch": "missing-patch"}))


class FullStream(io.StringIO):
    """A standard output whose writes fail as on a full device."""

    def write(self, text):
        raise OSError(28, "No space left on device")


class TestReportWriting:
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_out_device_exits_2(self):
        proc = run_cli("theorem", "--case", "associative", "--count", "1", "--out", "/dev/full")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot write the report: ")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("args", [("catalog",),
                                      ("theorem", "--case", "associative", "--count", "1")])
    def test_failed_stdout_write_exits_2(self, args):
        # exit 1 means only that a check failed: a report that cannot be written
        # is one error line and exit 2, not a traceback
        err = io.StringIO()
        with contextlib.redirect_stdout(FullStream()), contextlib.redirect_stderr(err):
            code = cli.main(list(args))
        assert code == 2
        assert err.getvalue() == ("error: cannot write the report: "
                                  "[Errno 28] No space left on device\n")

    def test_record_without_checks_is_vacuous(self, capsys):
        # a handler that yields no check for an experiment gets a passing record
        # marked vacuous; a record with checks carries no marker
        from caliblab.variation import Check

        experiments = [("a-none", {}, {"x": 1.0}, []),
                       ("b-one", {}, {"x": 1.0}, [Check("x", 1.0, 2.0)])]
        assert cli._report(iter(experiments), None, "jsonl") == 0
        none, one = parse_jsonl(capsys.readouterr().out)
        assert none["pass"] is True and none["vacuous"] is True
        assert one["pass"] is True and "vacuous" not in one


class TestOtherCommands:
    def test_catalog(self):
        proc = run_cli("catalog")
        listing = json.loads(proc.stdout)
        assert "t3-in-r7" in listing["patches"]
        assert set(listing["cases"]) == {"um", "associative", "coassociative", "cayley"}

    def test_catalog_names_build(self):
        # every listed patch name builds; the plane template is a pattern, not a name
        from caliblab.cli import ConfigError, catalog_patches, make_patch

        names = catalog_patches()
        assert names[-1] == "plane-<axes>-r<n>"
        for name in names[:-1]:
            assert make_patch(name).name == name
        with pytest.raises(ConfigError):
            make_patch(names[-1])

    def test_smith_small(self):
        proc = run_cli("smith", "--trials", "5", "--quad-order", "4")
        assert proc.returncode == 0
        records = parse_jsonl(proc.stdout)
        assert any(r["id"] == "smith-random-chain" for r in records)

    def test_nan_residuals_fail_the_catalog(self, monkeypatch):
        # a NaN residual is neither "vanishes" nor "does not vanish": every catalog
        # map fails, whichever way its map is expected to come out
        monkeypatch.setattr(cli, "smith_residual", lambda triple, rule: (float("nan"),) * 2)
        proc = run_cli("smith", "--trials", "1", "--quad-order", "2")
        assert proc.returncode == 1
        catalog = [r for r in parse_jsonl(proc.stdout) if r["id"].startswith("smith-catalog-")]
        assert len(catalog) == len(cli.smith_catalog())
        assert not any(r["pass"] for r in catalog)

    def test_nan_chain_value_is_the_worst_gap(self, monkeypatch):
        # a NaN volume makes the random chain's worst gap NaN, not 0
        monkeypatch.setattr(cli, "k_volume", lambda triple, rule: float("nan"))
        proc = run_cli("smith", "--trials", "2", "--quad-order", "2")
        assert proc.returncode == 1
        rec = next(r for r in parse_jsonl(proc.stdout) if r["id"] == "smith-random-chain")
        assert math.isnan(rec["results"]["worst_gap"]) and rec["pass"] is False

    def test_minimal_small(self):
        # the flat-torus zero check is quadrature-limited: keep the default order
        proc = run_cli("minimal", "--count", "1")
        assert proc.returncode == 0


# the command-line values of the argv sweep: valid ones kept cheap, invalid ones of
# each option kind, and unknown or malformed patches
SWEEP_INTS = {"quad_order": (1, 4), "count": (1, 2), "trials": (1, 3), "k": (1, 3),
              "seed": (0, 99)}
SWEEP_FLOATS = ("1e-6", "0.5")
SWEEP_INVALID = {int: ("-1", "1.5", "two"), float: ("0", "-1e-3", "nan", "inf", "x"),
                 str: ("bogus",)}
SWEEP_PATCHES = ("nope", "plane-1x-r7", "plane-12-r10", "plane-", "plane-129-r7")
SWEEP_CURVED = {"um": "graph-um-r6", "associative": "graph-assoc-r7",
                "coassociative": "graph-coassoc-r7", "cayley": "graph-cayley-r8"}


def sweep_argvs(tmp, seed=0, size=80):
    """A seeded list of command lines built from cli.COMMANDS: each sets the
    options that bound a run's cost to small values, then one to three more
    options, valid or not; a flag, --k or a patch may not fit the case."""
    rng = random.Random(seed)
    patches = [*cli.catalog_patches()[:-1], "plane-124-r7", "plane-1235-r8"]
    argvs = [["catalog"], ["catalog", "--seed", "1"], ["theorem"],
             ["theorem", "--case", "associative", "--config", f"{tmp}/missing.json"]]
    while len(argvs) < size:
        command = rng.choice(["theorem"] * 3 + ["identities", "smith", "minimal"])
        table = cli.COMMANDS[command][2]
        values = {key: str(rng.randint(*SWEEP_INTS[key]))
                  for key in ("quad_order", "count", "trials") if key in table}
        if command == "theorem":
            values["case"] = rng.choice(cli.CASES)
        for key in rng.sample(sorted(set(table) - {"case"}), rng.randint(1, 3)):
            opt, valid = table[key], rng.random() < 0.6
            if opt.kind is bool:
                values[key] = None
            elif key == "patch":  # a valid patch is the case's curved one half the time
                values[key] = rng.choice(([SWEEP_CURVED[values["case"]]] if rng.random() < 0.5
                                          else patches) if valid else SWEEP_PATCHES)
            elif key == "out":
                values[key] = (f"{tmp}/r{len(argvs)}.jsonl" if valid
                               else rng.choice([str(tmp), f"{tmp}/missing/r.jsonl"]))
            elif not valid:
                values[key] = rng.choice(SWEEP_INVALID[opt.kind])
            elif opt.choices:
                values[key] = rng.choice(opt.choices)
            else:
                values[key] = (str(rng.randint(*SWEEP_INTS[key])) if opt.kind is int
                               else rng.choice(SWEEP_FLOATS))
        argv = [command]
        for key, val in values.items():
            argv += [cli._flag(key)] + ([] if val is None else [val])
        argvs.append(argv)
    return argvs


def test_argv_sweep_exits_cleanly(tmp_path):
    # no input raises; exit 2 means bad input, with one error line and no report;
    # every JSON record of a finished run ran at least one check
    codes = []
    for argv in sweep_argvs(tmp_path):
        proc = run_cli(*argv)
        assert proc.returncode in (0, 1, 2), argv
        if proc.returncode == 2:
            assert proc.stdout == "", argv
            assert "error:" in proc.stderr.strip().splitlines()[-1], argv
        elif argv[0] != "catalog" and "csv" not in argv:
            out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
            records = parse_jsonl(out.read_text() if out else proc.stdout)
            assert records and not any("vacuous" in r for r in records), argv
        codes.append(proc.returncode)
    assert {0, 2} <= set(codes)


class TestEntryPoint:
    def test_module_runs_main(self):
        # python -m caliblab.cli in a fresh interpreter exits with main's code
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "caliblab.cli", "theorem", "--case",
                               "associative", "--patch", "nope"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert_config_error(proc)


class TestColdStart:
    def test_setup_requests_import_no_numpy_polynomial(self):
        # a fresh interpreter imports the CLI and makes one default theorem
        # request per case, which builds every lazy table a request pays for;
        # none of it needs numpy.polynomial, whose import alone adds about
        # 0.75 MB of peak RSS and 3.5 ms (2-vCPU host, numpy 2.4)
        code = (
            "import contextlib, io, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import caliblab.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(['theorem', '--case', case, '--count', '1'])\n"
            "             for case in ('um', 'associative', 'coassociative', 'cayley')]\n"
            "print(codes, sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
        )
        proc = subprocess.run([sys.executable, "-I", "-c", code, SRC],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0, 0] []"
