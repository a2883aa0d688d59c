"""Command line behaviour: reports, exit codes, batch mode, seeding.

The reports are checked against direct engine calls plus a few frozen
instances worked by hand (the rank-2 module with S_1 = 1 + 3b^2 and the
rank-3 one with lambda = (3,3,3), S_1 = 1 + b^2).
"""

import io
import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import frescos.cli as cli_module
import frescos.oracle as oracle_module
from frescos.algebra import AbElement
from frescos.cli import (
    EXIT_DOMAIN,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    _random_presentation,
    main,
)
from frescos.dsl import parse_fresco, print_fresco
from frescos.errors import DegenerateTruncation, NotAGenerator
from frescos.fresco import twist
from frescos.oracle import minimal_annihilator, truncate_rep
from frescos.xi import XiExpansion, xi_generate_module, xi_log_filtration
from test_xi import EndlessEchelon, StuckSolver

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


def test_internal_failure_is_exit_four_and_the_batch_goes_on(
        monkeypatch, capsys):
    run_one = cli_module.run_one
    calls = []

    def second_fails(command, obj):
        calls.append(obj)
        if len(calls) == 2:
            raise AssertionError("peel remainder should vanish")
        return run_one(command, obj)

    monkeypatch.setattr("frescos.cli.run_one", second_fails)
    lines = (
        "fresco: (5/2 | 1) (7/2 | 1)\n"
        "fresco: (3 | 1 + b) (3 | 1)\n"
        "fresco: (1/2 | 1) (1/2 | 1)\n"
    )
    code, reps = run_json(["analyze", "--seed", "1"], stdin_text=lines)
    # the internal failure outranks the domain error on the third line
    assert code == EXIT_INTERNAL
    assert len(reps) == 3
    assert reps[0]["rank"] == 2
    assert reps[1] == {"command": "analyze", "seed": 1,
                       "input": "fresco: (3 | 1 + b) (3 | 1)",
                       "error": "InternalError",
                       "message": "peel remainder should vanish"}
    assert reps[2]["error"] == "NotGeometric"
    assert "Traceback" not in capsys.readouterr().err


def test_verify_internal_failure_is_exit_four(monkeypatch, capsys):
    def broken(p, M, rng):
        raise AssertionError("filtration never reaches the full rank")

    monkeypatch.setattr("frescos.cli._oracle_check_one", broken)
    code, (rep,) = run_json(
        ["verify", "--seed", "1", "--samples", "2",
         "--order", "12", "--oracle-depth", "12"]
    )
    assert code == EXIT_INTERNAL
    assert rep == {"command": "verify", "seed": 1, "error": "InternalError",
                   "message": "filtration never reaches the full rank"}
    assert "Traceback" not in capsys.readouterr().err


def test_file_input(tmp_path):
    path = tmp_path / "batch.txt"
    path.write_text("fresco: (3 | 1) (3 | 1)\nfresco: (4 | 1 + b)\n")
    code, reps = run_json(["analyze", "@%s" % path, "--seed", "1"])
    assert code == EXIT_OK
    assert [r["rank"] for r in reps] == [2, 1]


def test_missing_file_is_usage_error():
    code, _ = run(["analyze", "@/no/such/file", "--seed", "1"])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_input_file_without_a_line_is_usage_error(tmp_path, capsys, command):
    path = tmp_path / "blank.txt"
    path.write_text("\n  \n")
    code, text = run([command, "@%s" % path, "--seed", "1", "--samples", "3"])
    assert code == EXIT_USAGE and text == ""
    assert "no input given" in capsys.readouterr().err


def test_verify_without_an_input_argument_draws_samples():
    code, (rep,) = run_json(["verify", "--seed", "1", "--samples", "3",
                             "--order", "12"], "fresco: (3 | 1)\n")
    assert code == EXIT_OK
    assert rep["samples"] == 3 and rep["counts"] == {"pass": 3, "fail": 0}


def test_parser_is_built_once():
    assert cli_module.build_parser() is cli_module.build_parser()


def test_undecodable_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "batch.bin"
    path.write_bytes(b"\xff\xfe fresco: (3 | 1)\n")
    code, _ = run(["analyze", "@%s" % path, "--seed", "1"])
    assert code == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


def test_usage_errors():
    assert run(["frobnicate"])[0] == EXIT_USAGE
    assert run(["analyze", "--order", "x"])[0] == EXIT_USAGE
    assert run(["analyze"])[0] == EXIT_USAGE  # empty stdin, no input


def test_truncation_floor_refused():
    assert run(["analyze", "fresco: (3 | 1)", "--order", "2"])[0] == EXIT_USAGE
    code, _ = run(["analyze", "fresco: (3 | 1)", "--oracle-depth", "3"])
    assert code == EXIT_USAGE


def test_negative_samples_refused():
    assert run(["identities", "--samples", "-2", "--seed", "1"])[0] == \
        EXIT_USAGE
    assert run(["verify", "--samples", "-3", "--seed", "1"])[0] == EXIT_USAGE


def test_syntax_error_is_domain_exit():
    code, (rep,) = run_json(["analyze", "fresco: (3 | ", "--seed", "1"])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "DslSyntaxError"


@pytest.mark.parametrize("argv, column", [
    (["analyze", "fresco: (\u00b2|1)"], 10),
    (["xi", "s^(1/2) * log^\u00b3"], 15),
])
def test_superscript_digits_are_syntax_errors(argv, column, capsys):
    code, (rep,) = run_json(argv + ["--seed", "1"])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "DslSyntaxError"
    assert rep["message"].endswith("(line 1, column %d)" % column)
    assert "Traceback" not in capsys.readouterr().err


def test_json_shift_past_the_depth_is_refused_like_the_literal():
    payload = ('{"lambda": "1/2", "depth": 12, '
               '"terms": [[1, 2, 1, "1"], [1, 40, 0, "5"]]}')
    literal = "s^(3/2) * log + 5 * s^(79/2)"
    for argv in (["xi", payload], ["xi", "--order", "12", literal]):
        code, (rep,) = run_json(argv + ["--seed", "1"])
        assert code == EXIT_DOMAIN
        assert rep["error"] == "SemanticError"
        assert rep["message"] == "shift 40 is past the truncation depth 12"


@pytest.mark.parametrize("text", [
    "s^(1/2) * log",
    '{"lambda": "1/2", "terms": [[1, 0, 1, "1"]]}',
    # shift 11 lies between --order and --oracle-depth: verify parses at
    # the deeper one, so it refuses the kind, not the shift
    "s^(21/2)",
    '{"lambda": "1/2", "terms": [[1, 11, 0, "1"]]}',
])
def test_verify_refuses_every_expansion(text):
    code, (rep,) = run_json(["verify", "--seed", "1", "--order", "8",
                             "--oracle-depth", "16", text])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "SemanticError"
    assert rep["message"] == "verify expects a presentation"


def test_a_log_power_past_the_window_is_refused_at_once():
    start = time.perf_counter()
    code, (rep,) = run_json(["xi", "--seed", "1", "s^(1/2) * log^1000"])
    assert time.perf_counter() - start < 1
    assert code == EXIT_DOMAIN
    assert rep["error"] == "NotMonogenicAtTruncation"
    assert "--order 502504" in rep["message"]


@pytest.mark.parametrize("logpow", range(6, 11))
def test_log_powers_around_the_window_edge(logpow):
    # log^J has rank J + 1, and its annihilator needs more than order 8
    # from J = 6 on: the annihilator's room check refuses the window
    literal = "s^(1/2) * log^%d + s^(3/2)" % logpow
    code, (rep,) = run_json(["xi", "--seed", "1", "--order", "8", literal])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "NotMonogenicAtTruncation"


def test_a_column_reduction_that_raises_no_level_is_internal(monkeypatch):
    # the pass bound turns a reduction that would loop into exit 4
    monkeypatch.setattr("frescos.xi.Solver", StuckSolver)
    code, (rep,) = run_json(["xi", "--seed", "1", "s^(1/2) * log"])
    assert code == EXIT_INTERNAL
    assert rep["error"] == "InternalError"
    assert rep["message"].startswith("annihilator column reduction")


def test_an_n_chain_that_never_ends_is_internal(monkeypatch):
    # the insert bound turns a log-rank chain that would loop into exit 4
    monkeypatch.setattr("frescos.xi.Echelon", EndlessEchelon)
    code, (rep,) = run_json(["xi", "--seed", "1", "s^(1/2) * log^2"])
    assert code == EXIT_INTERNAL
    assert rep["error"] == "InternalError"
    assert rep["message"].startswith("log ranks: the N-chain")


_FUZZ_SEEDS = (
    "fresco: (5/2 | 1 + 3b^2) (7/2 | 1)",
    "fresco: (4 | 1) (5 | 1) (6 | 1 + b^4) (7 | 1)",
    "s^(3/2) * log^2 * [1 + 2s] @ v1",
    "xi: s^(1/2) * log + 2 * s^(3/2) @ v2",
    '{"lambda": "1/2", "terms": [[1, 1, 1, "1"]]}',
)
_FUZZ_ALPHABET = list("0123456789 +-*/^()[]{}|@:,\"bsvlogx") + \
    ["\t", "\n", "\u00b2", "\u00bd", "\u0663", "\u00b3"] * 4


@st.composite
def mutated_literals(draw):
    text = draw(st.sampled_from(_FUZZ_SEEDS))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "delete", "swap")))
        if edit == "insert":
            text = text[:i] + draw(st.sampled_from(_FUZZ_ALPHABET)) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
    return text


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("analyze", "xi")), mutated_literals())
def test_mutated_literals_end_in_a_report(command, text):
    # an inline input starting with '@' names a file
    assume(not text.startswith("@"))
    code, out = run([command, "--seed", "1", "--order", "8", "--", text])
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_MISMATCH, EXIT_INTERNAL)
    assert out.startswith("command: %s\nseed: 1\n" % command)


@pytest.mark.parametrize("label", ["annihilator", "generator",
                                   "lambdas", "generator:NotAGenerator"])
def test_verify_renders_each_failing_check(monkeypatch, label):
    # one oracle comparison at a time is made to disagree: the first
    # annihilator call serves the basis generator, the second a random
    # one; an engine error while regenerating is labelled with its class.
    # verify imports the oracle's functions when it runs: patch them there
    real = oracle_module.minimal_annihilator
    calls = []

    def minimal_annihilator(rep, x):
        calls.append(x)
        if len(calls) == {"annihilator": 1, "generator": 2}.get(label):
            return AbElement.linear(0, rep.M)
        return real(rep, x)

    monkeypatch.setattr(oracle_module, "minimal_annihilator",
                        minimal_annihilator)
    if label == "lambdas":
        monkeypatch.setattr(cli_module, "_bernstein_invariants",
                            lambda ann, lam: [lam] * ann.degree)
    if label == "generator:NotAGenerator":
        def regenerate_presentation(model, g):
            raise NotAGenerator("coordinate 2 has no constant term")

        monkeypatch.setattr(cli_module, "regenerate_presentation",
                            regenerate_presentation)
    literal = "fresco: (5/2 | 1 + 3b^2) (7/2 | 1)"
    code, text = run(["verify", "--seed", "1", "--order", "12",
                      "--oracle-depth", "12", literal])
    assert code == EXIT_MISMATCH
    assert text.splitlines()[-6:] == [
        "counts:",
        "  pass: 0",
        "  fail: 1",
        "disagreements:",
        "  input: " + literal,
        "  checks: " + label,
    ]


@pytest.mark.parametrize("literal", [
    pytest.param("fresco: (5/2 | 1 + 3b^2) (7/2 | 1)", id="principal"),
    # primitive, not principal: its fundamental invariants are (5/2, 5/2)
    pytest.param("fresco: (7/2 | 1 + b^2) (3/2 | 1)", id="nonprincipal"),
])
def test_verify_lambdas_sees_an_oracle_one_step_off(monkeypatch, literal):
    # the regenerated presentation copies the input's exponents, so only
    # the oracle's annihilator can refute them
    real = oracle_module.truncate_rep
    monkeypatch.setattr(oracle_module, "truncate_rep",
                        lambda p, M: real(twist(p, 1), M))
    code, (rep,) = run_json(["verify", "--seed", "1", "--order", "12",
                             "--oracle-depth", "12", literal])
    assert code == EXIT_MISMATCH
    assert rep["disagreements"] == [
        {"input": literal, "checks": ["annihilator", "generator", "lambdas"]}
    ]


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


@pytest.mark.parametrize("command, payload", [
    ("analyze",
     '{"factors": [{"lambda": true, "unit": {"coeffs": [1, true]}}]}'),
    ("analyze",
     '{"factors": [{"lambda": "3", "unit": {"coeffs": [1, true]}}]}'),
    ("xi", '{"lambda": true, "terms": [[1, 1, 1, "1"]]}'),
    ("xi", '{"lambda": "1/2", "terms": [[1, 1, 1, true]]}'),
    # a zero denominator is refused like a boolean, not a traceback
    ("analyze", '{"factors": [{"lambda": "1/0", "unit": {"coeffs": [1]}}]}'),
    ("analyze",
     '{"factors": [{"lambda": "3", "unit": {"coeffs": [1, "1/0"]}}]}'),
    ("xi", '{"lambda": "1/2", "terms": [[1, 0, 1, "3/0"]]}'),
    ("xi", '{"lambda": "1/0", "terms": [[1, 0, 1, "3"]]}'),
])
def test_json_booleans_are_not_rationals(command, payload):
    code, (rep,) = run_json([command, payload, "--seed", "1"])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "SemanticError"


@pytest.mark.parametrize("unit", [
    '{"coeffs": "12"}',
    '{"coeffs": ["1", "2"], "order": true}',
])
def test_bad_series_json_is_domain_exit(unit):
    payload = '{"factors": [{"lambda": "3", "unit": %s}, ' \
        '{"lambda": "4", "unit": {"coeffs": ["1"]}}]}' % unit
    code, (rep,) = run_json(["analyze", payload, "--seed", "1"])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "SemanticError"


@pytest.mark.parametrize("shift, literal", [
    (0, "s^(-1/2) * log^3"),
    (1, "s^(1/2) * log^3"),
])
def test_json_expansion_takes_depth_from_order(shift, literal):
    # the payload gives no depth, so --order sets it, as for a literal
    payload = '{"lambda": "1/2", "terms": [[1, %d, 3, "1"]]}' % shift
    code, (rep,) = run_json(["xi", "--seed", "1", "--order", "32", payload])
    assert code == EXIT_OK
    assert rep["depth"] == 32
    assert run_json(["xi", "--seed", "1", "--order", "32", literal]) == \
        (code, [rep])


def test_json_unit_takes_order_from_order():
    # the unit payloads give no order, so --order sets it, as for a
    # literal; verify then has series known to the depth it compares at
    payload = '{"factors": [{"lambda": "3", "unit": {"coeffs": ["1"]}}, ' \
        '{"lambda": "4", "unit": {"coeffs": ["1"]%s}}]}'
    argv = ["--order", "20", "--seed", "1"]
    code, (rep,) = run_json(["analyze"] + argv + [payload % ""])
    assert code == EXIT_OK
    assert rep["alpha"] == "0"
    assert rep["diagnostics"]["unit_orders"] == [20, 20]
    assert run_json(["analyze"] + argv + ["fresco: (3 | 1) (4 | 1)"]) == \
        (code, [rep])
    code, (rep,) = run_json(["verify"] + argv + [payload % ""])
    assert code == EXIT_OK
    assert rep["counts"] == {"pass": 1, "fail": 0}
    # an order in the payload still wins
    code, (rep,) = run_json(["analyze"] + argv + [payload % ', "order": 5'])
    assert rep["diagnostics"]["unit_orders"] == [20, 5]


def test_json_unit_past_the_order_names_the_unit_and_the_order():
    # an orderless unit longer than the working order gets the literal's
    # refusal; a unit past the order it states names that order
    payload = '{"factors": [{"lambda": "3", "unit": {"coeffs": ' \
        '["1","0","0","0","0","0","1"]%s}}, ' \
        '{"lambda": "4", "unit": {"coeffs": ["1"]}}]}'
    argv = ["analyze", "--order", "4", "--seed", "1"]
    literal = run_json(argv + ["fresco: (3 | 1 + b^6) (4 | 1)"])
    for extra, message in [
            ("", "unit 1 has a b^6 term past the working order 4"),
            (', "order": 5', "unit 1 has a b^6 term past its stated order 5")]:
        code, (rep,) = run_json(argv + [payload % extra])
        assert code == EXIT_DOMAIN
        assert (rep["error"], rep["message"]) == ("SemanticError", message)
        if not extra:
            assert (code, rep["error"], rep["message"]) == \
                (literal[0], literal[1][0]["error"], literal[1][0]["message"])
    # a negative stated order keeps the series payload's own refusal
    code, (rep,) = run_json(argv + [payload % ', "order": -1'])
    assert rep["message"] == "bad series payload: order must be nonnegative"


def test_verify_counts_do_not_move_with_depth():
    # six seeded random presentations, drawn alike at both depths
    got = []
    for depth in ("32", "48"):
        code, (rep,) = run_json(["verify", "--samples", "6", "--seed", "11",
                                 "--oracle-depth", depth])
        got.append((code, rep["counts"], rep["disagreements"]))
    assert got[0] == got[1]
    assert got[0][1]["pass"] == 6


@pytest.mark.parametrize("depth", [6, 9, 16, 24])
def test_verify_sweep_passes_at_the_window_edge(depth):
    # the benchmark pool runs depth 32 on one-term units; shallow depths
    # and units of up to three terms reach the edge where the columns of
    # a are cut
    for seed in range(1, 41):
        code, (rep,) = run_json(["verify", "--seed", str(seed), "--samples",
                                 "5", "--order", "40", "--oracle-depth",
                                 str(depth)])
        assert code == EXIT_OK
        assert rep["counts"]["fail"] == 0


def test_analyze_reports_do_not_move_with_order():
    # six seeded random presentations, each analyzed at both orders
    rng = random.Random(11)
    for _ in range(6):
        literal = print_fresco(_random_presentation(rng, 8))
        got = []
        for order in ("32", "48"):
            code, (rep,) = run_json(["analyze", "--seed", "1", "--order",
                                     order, literal])
            rep["diagnostics"].pop("unit_orders")
            got.append((code, rep))
        assert got[0] == got[1]


@pytest.mark.parametrize("literal", [
    "s^(1/2) * log^2 + 3 * s^(3/2) * log",
    "s^(-1/3) * log^3",
    "s^(2/3) * log + s^(5/3) * log^2 - 2 * s^(8/3)",
    "s^(3/4) + s^(7/4) * log",
])
def test_xi_invariants_do_not_move_with_order(literal):
    fields = ("rank", "log_filtration", "bernstein_roots", "lambdas")
    got = []
    for order in ("26", "42"):
        code, (rep,) = run_json(["xi", "--seed", "1", "--order", order,
                                 literal])
        assert code == EXIT_OK
        got.append({f: rep[f] for f in fields})
    assert got[0] == got[1]


@pytest.mark.parametrize("order, literal", [
    (32, "s^(1/2) * log^6"),            # the unit peels run out of order
    (8, "s^(1/2)*log^2 + s^(7/2)"),     # the annihilator has no room
    (12, "s^(1/2)*log + s^(5/2)*log^3"),
])
def test_truncation_errors_name_an_order_that_works(order, literal):
    code, (rep,) = run_json(["xi", "--seed", "1", "--order", str(order),
                             literal])
    assert code == EXIT_DOMAIN
    assert rep["error"] == "NotMonogenicAtTruncation"
    named = int(re.search(r"--order (\d+)", rep["message"]).group(1))
    code, (rep,) = run_json(["xi", "--seed", "1", "--order", str(named),
                             literal])
    assert code == EXIT_OK and "error" not in rep
    # the named order is the least one that works
    code, (rep,) = run_json(["xi", "--seed", "1", "--order",
                             str(named - 1), literal])
    assert code == EXIT_DOMAIN


def _cli_message(*argv):
    """The message of argv + [n] as a function of the window n."""
    def at(n):
        code, (rep,) = run_json(list(argv) + [str(n)])
        return rep.get("message", "")
    return at


def test_log_filtration_needs_no_window():
    # the filtration comes off phi's coefficients, so every depth from
    # J + 3 gives the one the model's depth gives
    terms = {(1, 1, 1): -1, (1, 4, 2): 1, (2, 1, 0): 1}
    got = {xi_log_filtration(xi_generate_module(
        XiExpansion(Fraction(1, 2), depth, 2, terms)))["ranks"]
        for depth in range(6, 40)}
    assert got == {(2, 3, 4)}


@pytest.mark.parametrize("literal, start", [
    pytest.param("s^(1/2)*log^3 @ v1 + s^(1/2) @ v2", 4, id="xi-short"),
    pytest.param("s^(1/2)*log^3 @ v1 + s^(1/2) @ v2", 8, id="xi-profile"),
    pytest.param("s^(1/2) * log^3 @ v1 + s^(-1/2) * log @ v2", 8,
                 id="xi-profile-two-terms"),
    pytest.param("-s^(1/2) * log @ v1 + s^(7/2) * log^2 @ v1 "
                 "+ s^(1/2) @ v2", 6, id="xi-late-chain"),
    pytest.param("-s^(1/2) * log @ v1 + s^(7/2) * log^2 @ v1 "
                 "+ s^(1/2) @ v2", 13, id="xi-late-chain-at-13"),
])
def test_several_component_refusals_name_one_order(literal, start):
    # the rank is known up front, so the refusal names the order the
    # report needs: it succeeds there and still refuses one below
    message_at = _cli_message("xi", "--seed", "1", literal, "--order")
    named = int(re.search(r"--order (\d+)", message_at(start)).group(1))
    assert named > start
    assert message_at(named) == ""
    assert re.search(r"--order %d\b" % named, message_at(named - 1))


def test_component_index_costs_nothing():
    # only the components that carry a term are indexed, so v1000000
    # reports what v2 does, in no more time or memory
    reps = []
    for comp in (2, 10 ** 6):
        literal = "s^(1/2) * log @ v1 + s^(-1/2) @ v%d" % comp
        code, (rep,) = run_json(["xi", "--seed", "1", literal])
        assert code == EXIT_OK
        reps.append(rep)
    keys = ("rank", "presentation", "lambdas", "log_filtration")
    assert [[rep[k] for k in keys] for rep in reps] == \
        [[reps[0][k] for k in keys]] * 2
    assert reps[0]["rank"] == 3


@pytest.mark.parametrize("stem, message_at, start, flag", [
    pytest.param("pivot count per level has not stabilised",
                 _cli_message("verify", "--seed", "1", "--order", "32",
                              "fresco: (11/3 | 1 - b) (5/3 | 1 + 1/2b^4) "
                              "(5 | 1 - 2b^2)", "--oracle-depth"),
                 5, "--oracle-depth", id="oracle-levels"),
    pytest.param("pivot count per level has not stabilised",
                 _cli_message("verify", "--seed", "1", "--order", "32",
                              "fresco: (11/3 | 1 - b) (5/3 | 1 + 1/2b^4) "
                              "(5 | 1 - 2b^2)", "--oracle-depth"),
                 4, "--oracle-depth", id="oracle-levels-from-4"),
])
def test_unstable_profiles_name_the_least_window_past_them(
        stem, message_at, start, flag):
    msg = message_at(start)
    assert msg.startswith(stem)
    named = int(re.search(r"rerun with %s (\d+)$" % flag, msg).group(1))
    assert named > start
    assert not message_at(named).startswith(stem)
    assert message_at(named - 1).startswith(stem)


def _oracle_room_message(v):
    """The oracle's message on b^v f_3 as a function of the depth."""
    p = parse_fresco("fresco: (11/3 | 1 - b) (5/3 | 1 + 1/2b^4) "
                     "(5 | 1 - 2b^2)", order=32)

    def at(depth):
        rep = truncate_rep(p, depth)
        try:
            minimal_annihilator(rep, rep.basis_vector(3, v))
        except DegenerateTruncation as err:
            return str(err)
        return ""
    return at


@pytest.mark.parametrize("message_at", [
    pytest.param(_oracle_room_message(3), id="oracle-b3-e3"),
])
def test_oracle_room_error_names_the_least_depth_with_room(message_at):
    # the message names k + v + 2 for a vector of valuation v, whatever
    # degree ran out of room: the least depth whose solve has room for
    # every degree up to the rank, so the named depth is the one rerun
    msg = message_at(4)
    named = int(re.fullmatch(
        r"depth 4 leaves no room for a degree-\d+ annihilator; rerun "
        r"with --oracle-depth (\d+)", msg).group(1))
    assert message_at(named) == ""
    assert "leaves no room" in message_at(named - 1)


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
