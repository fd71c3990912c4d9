import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

CLI = [sys.executable, "-m", "caliblab.cli"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    # the child interpreter finds the package in this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=env)


def parse_jsonl(text):
    return [json.loads(line) for line in text.strip().splitlines()]


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

    def test_corrupt_hook_fails(self):
        proc = run_cli("identities", "--corrupt-structure-constant")
        assert proc.returncode == 1
        records = parse_jsonl(proc.stdout)
        assert any(not r["pass"] for r in records)


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
    ])
    def test_out_of_range_option_exits_2(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


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
    def test_report_record_round_trip(self):
        from caliblab.cli import ReportRecord

        rec = ReportRecord(1, "exp-000", {"case": "associative"},
                           {"value": 0.125, "ok": True}, True, 3.25)
        assert ReportRecord.from_dict(json.loads(json.dumps(rec.to_dict()))) == rec

    def test_experiment_config_validation(self):
        from caliblab.cli import ConfigError, ExperimentConfig

        good = ExperimentConfig(case="cayley", patch="t4-in-r8", keep_omega4_1=True)
        assert good.make_patch().n == 8
        with pytest.raises(ConfigError):
            ExperimentConfig(case="nonsense", patch="t3-in-r7")
        with pytest.raises(ConfigError):
            ExperimentConfig(case="associative", patch="t3-in-r7", tol_int=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(case="um", patch="t2-in-r6", keep_omega4_1=True)
        with pytest.raises(KeyError):
            ExperimentConfig(case="associative", patch="missing-patch")


class TestOtherCommands:
    def test_catalog(self):
        proc = run_cli("catalog")
        listing = json.loads(proc.stdout)
        assert "t3-in-r7" in listing["patches"]
        assert set(listing["cases"]) == {"um", "associative", "coassociative", "cayley"}

    def test_smith_small(self):
        proc = run_cli("smith", "--trials", "5", "--quad-order", "4")
        assert proc.returncode == 0
        records = parse_jsonl(proc.stdout)
        assert any(r["id"] == "smith-random-chain" for r in records)

    def test_minimal_small(self):
        # the flat-torus zero check is quadrature-limited: keep the default order
        proc = run_cli("minimal", "--count", "1")
        assert proc.returncode == 0
