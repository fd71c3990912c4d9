"""The mutation matrix: each convention the reports rely on is checked by
some CLI run.  A row sets one convention to a wrong value at its single
source; its run, which exits 0 on the standard conventions, must then exit 1
with exactly the listed records failing."""
import pytest
from conftest import flip_first_term
from test_cli import parse_jsonl, run_cli

from caliblab import decomposition, structures, variation

THEOREM = ("theorem", "--count", "1", "--case")

# name: (owner, name, key or None, wrong value), argv, ids of the failing records
ROWS = {
    "g2-e123-sign": (
        (structures, "G2_PHI_TERMS", None, flip_first_term(structures.G2_PHI_TERMS)),
        ("identities", "--trials", "1000"),
        {"identity-g2-phiphi-pair", "identity-g2-phipsi", "identity-g2-psipsi-pair",
         "equality-associative", "equality-coassociative"}),
    "spin7-e1234-sign": (
        (structures, "SPIN7_PHI_TERMS", None, flip_first_term(structures.SPIN7_PHI_TERMS)),
        ("identities", "--case", "sp7"),
        {"identity-sp7-PhiPhi-pair"}),
    "closed-form-scale-cayley": (
        (variation, "CLOSED_FORM_SCALE", "cayley", 0.6),
        (*THEOREM, "cayley", "--patch", "graph-cayley-r8", "--generator", "test-variation",
         "--quad-order", "4"),
        {"theorem-cayley-graph-cayley-r8-test-variation-000"}),
    "closed-form-scale-associative": (
        (variation, "CLOSED_FORM_SCALE", "associative", -1.1),
        (*THEOREM, "associative", "--patch", "graph-assoc-r7", "--quad-order", "6"),
        {"theorem-associative-graph-assoc-r7-random-000"}),
    "h-sp7-trace": (
        (decomposition, "H_MAP_COEFFS", "h_sp7", (1.0 / 24.0, 1.0 / 113.0)),
        (*THEOREM, "cayley", "--generator", "test-variation", "--keep-omega4-1"),
        {"theorem-cayley-t4-in-r8-test-variation-000"}),
    "h-from-3form-trace": (
        (decomposition, "H_MAP_COEFFS", "h_from_3form", (1.0 / 4.0, 1.0 / 19.0)),
        (*THEOREM, "associative"),
        {"theorem-associative-t3-in-r7-random-000"}),
}


@pytest.mark.parametrize("row", sorted(ROWS))
def test_wrong_convention_fails_its_run(row, convention):
    source, argv, failing = ROWS[row]
    assert run_cli(*argv).returncode == 0
    convention(*source)
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stderr) == (1, "")
    assert {r["id"] for r in parse_jsonl(proc.stdout) if not r["pass"]} == failing

