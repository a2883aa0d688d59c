"""Command line behaviour: reports, exit codes, batch mode, seeding.

The reports are checked against direct engine calls plus a few frozen
instances worked by hand (the rank-2 module with S_1 = 1 + 3b^2 and the
rank-3 one with lambda = (3,3,3), S_1 = 1 + b^2).
"""

import io
import json
import re
import subprocess
import sys

import pytest

from frescos.cli import EXIT_DOMAIN, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main

RAT = re.compile(r"^-?\d+(/\d+)?$")


def run(args, stdin_text=""):
    out = io.StringIO()
    code = main(args, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


def run_json(args, stdin_text=""):
    code, text = run(args + ["--format", "json"], stdin_text)
    reports = [json.loads(line) for line in text.strip().split("\n") if line]
    return code, reports


def test_analyze_frozen_rank2():
    code, (rep,) = run_json(
        ["analyze", "fresco: (5/2 | 1 + 3b^2) (7/2 | 1)", "--seed", "7"]
    )
    assert code == EXIT_OK
    assert rep["seed"] == 7
    assert rep["rank"] == 2
    assert rep["lambdas"] == ["5/2", "7/2"]
    assert rep["p_values"] == ["2"]
    assert rep["mu"] == "6"
    assert rep["bernstein_roots"] == ["-3/2", "-7/2"]
    assert rep["alpha"] == "3"
    assert rep["geometric"] and rep["primitive"] and rep["principal"]
    assert rep["theme"] is True
    assert rep["semisimple"] is False


def test_analyze_numeric_fields_are_rational_strings():
    _, (rep,) = run_json(
        ["analyze", "fresco: (5/2 | 1 + 3b^2) (7/2 | 1)", "--seed", "7"]
    )
    for key in ("mu", "alpha"):
        assert RAT.match(rep[key])
    for key in ("lambdas", "p_values", "bernstein_roots"):
        assert all(RAT.match(x) for x in rep[key])


def test_alpha_frozen_rank3():
    code, (rep,) = run_json(
        ["alpha", "fresco: (3 | 1 + b^2) (3 | 1) (3 | 1)", "--seed", "1"]
    )
    assert code == EXIT_OK
    assert rep["alpha"] == "1"
    assert rep["semisimple"] is False


def test_alpha_rank2_split_step():
    # p = 0 in rank 2 is the borderline theme with parameter 1
    code, (rep,) = run_json(["alpha", "fresco: (3 | 1) (2 | 1)", "--seed", "1"])
    assert code == EXIT_OK
    assert rep["alpha"] == "1"
    assert rep["semisimple"] is False


def test_alpha_needs_rank_two():
    code, (rep,) = run_json(["alpha", "fresco: (3 | 1)", "--seed", "1"])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "WrongRank"


def test_alpha_p_value_zero_is_domain_error():
    code, (rep,) = run_json(
        ["alpha", "fresco: (3 | 1 + b^2) (2 | 1) (1 | 1)", "--seed", "1"]
    )
    assert code == EXIT_DOMAIN
    assert rep["error"] == "PValueZero"


def test_ss_trivial_units_semisimple():
    code, (rep,) = run_json(
        ["ss", "fresco: (3 | 1) (3 | 1) (3 | 1)", "--seed", "1"]
    )
    assert code == EXIT_OK
    assert rep["semisimple"] is True


def test_ss_nonzero_alpha_not_semisimple():
    code, (rep,) = run_json(
        ["ss", "fresco: (3 | 1 + b^2) (3 | 1) (3 | 1)", "--seed", "1"]
    )
    assert code == EXIT_OK
    assert rep["semisimple"] is False


def test_subtheme_frozen_rank3():
    code, (rep,) = run_json(
        ["subtheme", "fresco: (3 | 1 + b^2) (3 | 1) (3 | 1)", "--seed", "1"]
    )
    assert code == EXIT_OK
    assert rep["subtheme"] == {"low": "3", "high": "4", "p": "2",
                               "parameter": "1"}
    q = rep["quotient_theme"]
    assert (q["low"], q["high"], q["p"]) == ("2", "3", "2")
    assert RAT.match(q["parameter"]) and q["parameter"] != "0"


def test_subtheme_alpha_zero_is_domain_error():
    code, (rep,) = run_json(
        ["subtheme", "fresco: (3 | 1) (3 | 1) (3 | 1)", "--seed", "1"]
    )
    assert code == EXIT_DOMAIN
    assert rep["error"] == "AlphaZero"


def test_analyze_non_principal_still_reports():
    # mixed classes mod 1: no semisimplicity verdict, invariants still print
    code, (rep,) = run_json(
        ["analyze", "fresco: (5/2 | 1) (3 | 1)", "--seed", "1"]
    )
    assert code == EXIT_OK
    assert rep["principal"] is False
    assert "semisimple" not in rep
    assert "semisimple_unavailable" in rep["diagnostics"]
    assert "alpha_unavailable" in rep["diagnostics"]


def test_xi_mixed_expansion_report():
    code, (rep,) = run_json(
        ["xi", "s^(-1/2) + s^(1/2) * log", "--seed", "3", "--order", "16"]
    )
    assert code == EXIT_OK
    assert rep["rank"] == 2
    assert rep["lambdas"] == ["3/2", "3/2"]
    assert rep["bernstein_roots"] == ["-1/2", "-3/2"]
    assert rep["log_filtration"] == {"ranks": [1, 2], "d": 2}
    assert rep["semisimple"] is False


def test_analyze_dispatches_on_input_kind():
    code, (rep,) = run_json(
        ["analyze", "s^(-1/2) + s^(1/2) * log", "--seed", "3", "--order", "16"]
    )
    assert code == EXIT_OK
    assert rep["rank"] == 2
    assert "log_filtration" in rep


def test_xi_rejects_presentation_input():
    code, (rep,) = run_json(["xi", "fresco: (3 | 1)", "--seed", "1"])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "SemanticError"


def test_alpha_rejects_expansion_input():
    code, (rep,) = run_json(["alpha", "s^(1/2)", "--seed", "1"])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "SemanticError"


def test_batch_stdin_one_report_per_line():
    lines = (
        "fresco: (5/2 | 1) (7/2 | 1)\n"
        "fresco: (1/2 | 1) (1/2 | 1)\n"
        "fresco: (3 | 1 + b) (3 | 1)\n"
    )
    code, reps = run_json(["analyze", "--seed", "1"], stdin_text=lines)
    assert code == EXIT_DOMAIN
    assert len(reps) == 3
    assert reps[0]["rank"] == 2
    assert reps[1]["error"] == "NotGeometric"
    assert reps[2]["rank"] == 2


def test_file_input(tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text("fresco: (3 | 1) (3 | 1)\nfresco: (4 | 1 + b)\n")
    code, reps = run_json(["analyze", "@%s" % path, "--seed", "1"])
    assert code == EXIT_OK
    assert [r["rank"] for r in reps] == [2, 1]


def test_missing_file_is_usage_error():
    code, _ = run(["analyze", "@/no/such/file", "--seed", "1"])
    assert code == EXIT_USAGE


def test_usage_errors():
    assert run(["frobnicate"])[0] == EXIT_USAGE
    assert run(["analyze", "--order", "x"])[0] == EXIT_USAGE
    assert run(["analyze"])[0] == EXIT_USAGE  # empty stdin, no input


def test_truncation_floor_refused():
    assert run(["analyze", "fresco: (3 | 1)", "--order", "2"])[0] == EXIT_USAGE
    code, _ = run(["analyze", "fresco: (3 | 1)", "--oracle-depth", "3"])
    assert code == EXIT_USAGE


def test_syntax_error_is_domain_exit():
    code, (rep,) = run_json(["analyze", "fresco: (3 | ", "--seed", "1"])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "DslSyntaxError"


@pytest.mark.parametrize("fields", [
    '"depth": 2, "ncomp": 1, "terms": [[1, 1, 1, "1"]]',
    '"depth": "x", "ncomp": 1, "terms": [[1, 1, 1, "1"]]',
    '"depth": 8, "ncomp": 1, "terms": [[1, 1.5, 1, "1"]]',
])
def test_bad_expansion_json_is_domain_exit(fields):
    payload = '{"lambda": "1/2", %s}' % fields
    code, (rep,) = run_json(["xi", payload, "--seed", "1"])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "SemanticError"


def test_seed_reported_when_not_given():
    code, (rep,) = run_json(["ss", "fresco: (3 | 1)"])
    assert code == EXIT_OK
    assert isinstance(rep["seed"], int)


def test_text_format():
    code, text = run(
        ["analyze", "fresco: (5/2 | 1 + 3b^2) (7/2 | 1)", "--seed", "7"]
    )
    assert code == EXIT_OK
    assert "seed: 7" in text
    assert "bernstein_roots: -3/2, -7/2" in text
    assert "mu: 6" in text


def test_verify_seeded_and_deterministic():
    args = ["verify", "--seed", "42", "--samples", "2",
            "--oracle-depth", "12", "--order", "12"]
    code1, text1 = run(args + ["--format", "json"])
    code2, text2 = run(args + ["--format", "json"])
    assert code1 == code2 == EXIT_OK
    assert text1 == text2
    rep = json.loads(text1)
    assert rep["counts"] == {"pass": 2, "fail": 0}
    assert rep["disagreements"] == []


def test_verify_explicit_input():
    code, (rep,) = run_json(
        ["verify", "fresco: (5/2 | 1 + 3b^2) (7/2 | 1)", "--seed", "1",
         "--order", "12", "--oracle-depth", "12"]
    )
    assert code == EXIT_OK
    assert rep["counts"] == {"pass": 1, "fail": 0}


def test_verify_exit_three_on_disagreement(monkeypatch):
    monkeypatch.setattr("frescos.cli._oracle_check_one",
                        lambda p, M, rng: ["annihilator"])
    code, (rep,) = run_json(
        ["verify", "--seed", "1", "--samples", "2",
         "--order", "12", "--oracle-depth", "12"]
    )
    assert code == EXIT_MISMATCH
    assert rep["counts"]["fail"] == 2
    assert rep["disagreements"][0]["checks"] == ["annihilator"]


def test_identities_report():
    code, (rep,) = run_json(
        ["identities", "--seed", "5", "--samples", "8", "--order", "16"]
    )
    assert code == EXIT_OK
    assert rep["exchange"] == {"pass": 8, "fail": 0}
    assert rep["unit_exchange"]["pass"] == 8
    assert rep["middle_unit_exchange"] == {"pass": 8, "fail": 0}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "frescos.cli", "ss", "--seed", "2",
         "--format", "json"],
        input="fresco: (3 | 1) (3 | 1)\n",
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["semisimple"] is True
