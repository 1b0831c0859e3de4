import os
import subprocess
import sys
from pathlib import Path

import pytest

import pst
from pst.cli import main

CHAIN3 = """
algebra chain3
size 3
leq
111
011
001
end
"""

BOOL2 = """
algebra bool2
size 2
leq
11
01
end
"""

SAT3 = """
fstructure sat3 kind=comega
algebra chain3
size 3
leq
111
011
001
end
N 0: 2
N 1: 2
N 2: 0 1 2
end
"""

SAT3_N4 = SAT3.replace("sat3 kind=comega", "sat3n4 kind=n4")

GOOD_DRV = """
derivation id_arrow system=n4
1: p -> ((p -> p) -> p) [axiom N1]
2: (p -> ((p -> p) -> p)) -> ((p -> (p -> p)) -> (p -> p)) [axiom N2]
3: (p -> (p -> p)) -> (p -> p) [mp 1 2]
4: p -> (p -> p) [axiom N1]
5: p -> p [mp 4 3]
qed 5
"""

BAD_DRV = GOOD_DRV.replace(
    "3: (p -> (p -> p)) -> (p -> p)", "3: (q -> (p -> p)) -> (p -> p)"
).replace("id_arrow", "bad")


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in [
        ("chain3.alg", CHAIN3),
        ("bool2.alg", BOOL2),
        ("sat3.fst", SAT3),
        ("sat3n4.fst", SAT3_N4),
        ("good.drv", GOOD_DRV),
        ("bad.drv", BAD_DRV),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_check_prints_imp_table(files, capsys):
    code, out, _ = run(capsys, "algebra", "check", files["chain3.alg"])
    assert code == 0
    assert "imp table" in out
    assert "RESULT valid=yes size=3 boolean=no" in out


def test_algebra_check_machine_single_line(files, capsys):
    code, out, _ = run(capsys, "--format", "machine", "algebra", "check", files["chain3.alg"])
    assert code == 0
    assert out.strip() == "RESULT valid=yes size=3 boolean=no"


def test_algebra_enum(files, capsys):
    code, out, _ = run(capsys, "--format", "machine", "algebra", "enum", "--max-size", "4")
    assert code == 0 and out.strip() == "RESULT count=5 max_size=4"


def test_python_dash_m_runs_the_cli():
    """``python -m pst`` is the ``pst`` script, from a checkout as well."""
    env = dict(os.environ, PYTHONPATH=str(Path(pst.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "pst", "algebra", "enum", "--max-size", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "RESULT count=3 max_size=3"


def test_main_reuses_one_parser_like_fresh_processes(files, capsys, monkeypatch):
    """One process's main answers a sequence of calls as fresh ``python -m
    pst`` processes answer each of them: no premise leaks from one call into
    the next, and a usage error or ``--help`` leaves the parser as it was."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width in both
    env = dict(os.environ, PYTHONPATH=str(Path(pst.__file__).resolve().parent.parent))
    sequence = [
        ["counter", "search", "--goal", "refute_sequent", "--premise", "p", "--premise", "~p", "--formula", "q"],
        ["counter", "search", "--goal", "refute_formula", "--formula", "p"],
        ["algebra"],
        ["eval", "--help"],
        ["eval", "--model", files["sat3.fst"], "--rank", "2", "--formula", "forall x . x eq x"],
    ]
    for argv in sequence:
        proc = subprocess.run(
            [sys.executable, "-m", "pst", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert run(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr), argv


def test_algebra_refinable(files, capsys):
    code, out, _ = run(capsys, "algebra", "refinable", files["chain3.alg"])
    assert code == 0
    assert "RESULT refinable=yes" in out


def test_fstructure_check_valid_and_invalid(files, capsys, tmp_path):
    code, out, _ = run(capsys, "fstructure", "check", files["sat3.fst"])
    assert code == 0 and "RESULT valid=yes" in out
    broken = tmp_path / "broken.fst"
    broken.write_text(SAT3.replace("N 1: 2", "N 1: 1"))
    code, out, _ = run(capsys, "fstructure", "check", str(broken))
    assert code == 1 and "RESULT valid=no" in out


def test_fstructure_saturate_round_trips(files, capsys, tmp_path):
    code, out, _ = run(capsys, "fstructure", "saturate", files["chain3.alg"], "--kind", "comega")
    assert code == 0
    body = out[: out.index("RESULT")]
    sat = tmp_path / "sat.fst"
    sat.write_text(body)
    code, out, _ = run(capsys, "fstructure", "check", str(sat))
    assert code == 0


def test_fstructure_sub(files, capsys, tmp_path):
    code, out, _ = run(capsys, "fstructure", "sub", files["sat3.fst"], files["sat3.fst"])
    assert code == 0 and "RESULT substructure=yes" in out


def test_universe_enum_lines(files, capsys):
    code, out, _ = run(capsys, "universe", "enum", "--model", files["sat3.fst"], "--rank", "2")
    assert code == 0
    assert "name 0 rank 1 = {  }" in out
    assert "RESULT count=4 rank=2 seed=0" in out


def test_universe_hat(files, capsys):
    code, out, _ = run(
        capsys, "universe", "hat", "--model", files["bool2.alg"], "--set", "{{},{{}}}"
    )
    assert code == 0
    assert "RESULT hat=2 rank=3" in out


def test_universe_hat_set_dashes_is_a_typed_error(files, capsys):
    """argparse may hand the value "--" over as an empty list; it is still
    read as text and rejected with one error line."""
    code, out, err = run(capsys, "universe", "hat", "--model", files["bool2.alg"], "--set=--")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_eval_valid_formula(files, capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "--model",
        files["sat3.fst"],
        "--rank",
        "2",
        "--formula",
        "exists x . x eq #0",
    )
    assert code == 0
    assert "valid=yes" in out


def test_eval_invalid_under_all_assignments(files, capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "--model",
        files["sat3.fst"],
        "--rank",
        "2",
        "--formula",
        "#0 eq #0 & ~(#0 eq #0)",
        "--quant",
        "all",
    )
    assert code == 1
    code, out, _ = run(
        capsys,
        "eval",
        "--model",
        files["sat3.fst"],
        "--rank",
        "2",
        "--formula",
        "#0 eq #0 & ~(#0 eq #0)",
        "--quant",
        "some",
    )
    assert code == 0


def test_eval_result_line_stable(files, capsys):
    args = [
        "--format",
        "machine",
        "eval",
        "--model",
        files["sat3.fst"],
        "--rank",
        "2",
        "--formula",
        "~(#0 eq #0)",
        "--quant",
        "all",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert out1 == out2 and code1 == code2


@pytest.mark.parametrize(
    "model, formula, printed, mode",
    [
        ("sat3n4.fst", "forall x . (x in #2 | ~(x eq x))", "forall x . x in #2 | ~(x eq x)", "n4"),
        ("sat3.fst", "exists x . (x eq x & ~(x eq x))", "exists x . x eq x & ~(x eq x)", "comega"),
    ],
)
def test_eval_human_output_pinned(files, capsys, model, formula, printed, mode):
    """The human format is the one place where n_assignments and the value
    range reach a user; the four atoms ~(x eq x) have three choices each."""
    code, out, err = run(capsys, "eval", "--model", files[model], "--rank", "2", "--formula", formula)
    assert (code, err) == (1, "")
    assert out == (
        f"formula: {printed}\n"
        f"mode {mode}, scope 4 names (rank <= 2)\n"
        "assignments: 81; value range [0, 2]\n"
        "valid (all_assignments): no\n"
        f"RESULT mode={mode} rank=2 quant=all_assignments value=0 valid=no assignment=aec366f2551e\n"
    )


def test_leibniz_command(files, capsys):
    code, out, _ = run(
        capsys,
        "leibniz",
        "--model",
        files["bool2.alg"],
        "--rank",
        "2",
        "--formula",
        "x in #0",
        "--var",
        "x",
    )
    assert code == 0 and "holds" in out


def test_axiom_check_pairing(files, capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "machine",
        "axiom",
        "check",
        "--axiom",
        "pairing",
        "--model",
        files["sat3.fst"],
        "--rank",
        "2",
    )
    assert code == 0
    assert out.strip() == "RESULT axiom=pairing rank=2 quant=none value=2 valid=yes"


def test_axiom_check_separation_needs_formula(files, capsys):
    code, _, err = run(
        capsys,
        "axiom",
        "check",
        "--axiom",
        "separation",
        "--model",
        files["sat3.fst"],
        "--rank",
        "2",
    )
    assert code == 2 and "--formula required" in err


def test_axiom_check_separation(files, capsys):
    code, out, _ = run(
        capsys,
        "axiom",
        "check",
        "--axiom",
        "separation",
        "--model",
        files["sat3.fst"],
        "--rank",
        "2",
        "--formula",
        "x eq x",
    )
    assert code == 0


def test_axiom_check_comprehension_at_rank_three(files, capsys):
    """Decided by ||x in x|| = bottom, with no rank-4 universe to build."""
    argv = ["axiom", "check", "--axiom", "comprehension", "--model", files["chain3.alg"], "--rank", "3"]
    code, out, err = run(capsys, "--format", "machine", *argv)
    assert (code, out, err) == (0, "RESULT axiom=comprehension-refuted rank=3 quant=none value=0 valid=yes\n", "")


@pytest.mark.parametrize(
    "model, argv",
    [
        ("chain3.alg", ["eval", "--formula", "exists x . #0 in f(x)"]),
        ("chain3.alg", ["eval", "--formula", "forall x . exists y . y eq f(x)"]),
        ("sat3n4.fst", ["eval", "--formula", "exists x . #0 in f(x)"]),
        ("chain3.alg", ["leibniz", "--formula", "#0 in f(x)", "--var", "x"]),
        ("chain3.alg", ["axiom", "check", "--axiom", "collection", "--formula", "y eq f(x)"]),
        ("chain3.alg", ["eval", "--formula", "forall x . x in g(x)"]),
        ("sat3n4.fst", ["eval", "--formula", "forall x . forall y . ~(y eq f(x))"]),
    ],
)
def test_a_variable_inside_a_function_term_is_an_error_line(files, capsys, model, argv):
    """Folded over x, an atom whose only x sits inside a function term is
    not read as the row of the atom without it: it is an error line, as on
    the scalar path."""
    code, out, err = run(capsys, "--format", "machine", *argv, "--model", files[model], "--rank", "2")
    assert (code, out, err) == (2, "", "error: function terms have no set-model interpretation\n")


def test_unknown_names_in_choice_free_collection_and_powerset_are_error_lines(files, capsys):
    """Collection by a choice-free phi reads phi once, at the first scope
    name: an unknown name in it is an error line from rank 1, where the
    scope has a name; an unknown target is one in collection and powerset."""
    base = ["--format", "machine", "axiom", "check", "--model", files["chain3.alg"]]
    phi = ["--axiom", "collection", "--formula", "y eq #99999 & x eq x"]
    line = "RESULT axiom=collection rank=0 quant=all_assignments value=2 valid=yes\n"
    assert run(capsys, *base, "--rank", "0", *phi) == (0, line, "")
    unknown = (2, "", "error: child name #99999 not in store\n")
    for rank in ("1", "2"):
        assert run(capsys, *base, "--rank", rank, *phi) == unknown
    for axiom in (["--axiom", "collection", "--formula", "y eq x"], ["--axiom", "powerset"]):
        assert run(capsys, *base, "--rank", "2", *axiom, "--u", "99999") == unknown


def test_prove_check_good_and_bad(files, capsys):
    code, out, _ = run(capsys, "prove", "check", files["good.drv"])
    assert code == 0 and "RESULT ok=yes" in out
    code, out, err = run(capsys, "prove", "check", files["bad.drv"])
    assert code == 1
    assert "error line 3" in err
    assert "RESULT ok=no line=3" in out


def test_prove_audit(files, capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "machine",
        "prove",
        "audit",
        "--system",
        "qn4",
        "--max-domain",
        "1",
        "--max-algebra",
        "3",
    )
    assert code == 0 and out.strip() == "RESULT failures=0"


@pytest.mark.parametrize(
    "system, max_algebra, max_domain, summary, result, want_code",
    [
        ("qn4", 5, 2, "audited 72 instances / 43508 evaluations for qn4 (algebra <= 5, |S| <= 2)", "RESULT failures=0", 0),
        ("qcw", 5, 2, "audited 54 instances / 31798 evaluations for qcw (algebra <= 5, |S| <= 2)", "RESULT failures=0", 0),
        ("qn3", 4, 2, "audited 78 instances / 15190 evaluations for qn3 (algebra <= 4, |S| <= 2)", "RESULT failures=291", 1),
        ("qn4", 4, 3, "audited 72 instances / 79492 evaluations for qn4 (algebra <= 4, |S| <= 3)", "RESULT failures=0", 0),
    ],
    ids=["qn4-5-2", "qcw-5-2", "qn3-4-2", "qn4-4-3"],
)
def test_prove_audit_summary(capsys, system, max_algebra, max_domain, summary, result, want_code):
    """The human summary line, the RESULT line and the exit code, pinned."""
    code, out, _ = run(
        capsys,
        "prove",
        "audit",
        "--system",
        system,
        "--max-algebra",
        str(max_algebra),
        "--max-domain",
        str(max_domain),
    )
    lines = out.splitlines()
    assert (code, lines[0], lines[-1]) == (want_code, summary, result)


def test_counter_search_found_and_not(files, capsys):
    code, out, _ = run(
        capsys, "--format", "machine", "counter", "search", "--goal", "non_explosion"
    )
    assert code == 0 and "RESULT found=yes" in out
    code, out, _ = run(
        capsys,
        "--format",
        "machine",
        "counter",
        "search",
        "--goal",
        "refute_formula",
        "--formula",
        "p | ~p",
        "--logic",
        "comega",
    )
    assert code == 1 and "RESULT found=no" in out


def test_counter_search_premise_needs_refute_sequent(capsys):
    for fmt in ("human", "machine"):
        code, out, err = run(
            capsys, "--format", fmt, "counter", "search", "--goal", "refute_formula",
            "--formula", "q", "--premise", "q", "--max-algebra", "2",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1 and "refute_sequent" in err


def test_counter_congruence(files, capsys):
    code, out, _ = run(
        capsys,
        "counter",
        "search",
        "--goal",
        "congruence",
        "--logic",
        "comega",
        "--max-algebra",
        "3",
    )
    assert code == 0 and "RESULT found=yes" in out


def test_counter_search_all_families_at_size_five(capsys):
    """--families all reaches max-algebra 5.  The census is pinned from the
    backtracking generator alone: the raw product of 31^5 families per
    algebra is out of reach in test time."""
    base = ("counter", "search", "--max-algebra", "5", "--families", "all")
    code, out, _ = run(capsys, *base, "--goal", "refute_formula", "--formula", "~~p -> p", "--logic", "comega")
    assert code == 1 and "exhausted search space (evaluations=1668)" in out
    code, out, _ = run(capsys, *base, "--goal", "refute_formula", "--formula", "p | ~p", "--logic", "n4")
    assert code == 0 and "over algebra of size 2" in out and "negation family: [[0, 1], [0]]" in out
    found = [
        run(capsys, "counter", "search", "--goal", "congruence", "--logic", "comega",
            "--max-algebra", "5", "--families", families)
        for families in ("saturated", "all")
    ]
    assert found[0] == found[1] and found[0][0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("prove", "audit", "--system", "qn4", "--max-algebra", "0"),
        ("prove", "audit", "--system", "qn4", "--max-domain", "0"),
        ("counter", "search", "--goal", "refute_formula", "--formula", "p", "--max-algebra", "0"),
        ("counter", "search", "--goal", "refute_formula", "--formula", "p", "--max-algebra", "-1"),
        ("counter", "search", "--goal", "congruence", "--max-algebra", "0"),
    ],
)
def test_empty_budget_is_a_usage_error(capsys, argv):
    # a budget that admits nothing would report a vacuous success or exhaustion
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and "must be at least 1" in err


def test_usage_errors_exit_two(files, capsys):
    code, out, err = run(capsys, "algebra")  # argparse's exit is mapped to a return
    assert (code, out) == (2, "")
    assert err.startswith("usage: pst algebra")
    code, _, err = run(capsys, "eval", "--model", "missing.fst", "--rank", "2", "--formula", "bot")
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys,
        "eval",
        "--model",
        files["sat3.fst"],
        "--rank",
        "2",
        "--formula",
        "p & ",
    )
    assert code == 2


@pytest.mark.parametrize(
    "formula",
    [
        "~" * 500 + "(#0 eq #0)",
        "(" * 900 + "#0 eq #0" + ")" * 900,
        " & ".join(["#0 eq #0"] * 2000),
        " -> ".join(["#0 eq #0"] * 2000),
        " <-> ".join(["#0 eq #0"] * 2000),
        " <-> ".join(["#0 eq #0"] * 60),  # within the parser's count, each <-> two tree levels
    ],
    ids=[
        "deep-negation",
        "deep-parentheses",
        "long-conjunction",
        "long-implication",
        "long-biconditional",
        "shared-biconditional",
    ],
)
def test_deep_formula_is_a_typed_error(files, capsys, formula):
    code, out, err = run(
        capsys, "eval", "--model", files["chain3.alg"], "--rank", "1", "--formula", formula
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nests deeper" in err and "Traceback" not in err


@pytest.mark.parametrize("depth", [101, 600])
def test_deep_hf_set_is_a_typed_error(files, capsys, depth):
    nested = "{" * depth + "}" * depth
    code, out, err = run(capsys, "universe", "hat", "--model", files["chain3.alg"], "--set", nested)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nests deeper" in err and "Traceback" not in err


def test_hf_set_at_the_depth_cap_embeds(files, capsys):
    nested = "{" * 100 + "}" * 100
    code, out, _ = run(capsys, "universe", "hat", "--model", files["chain3.alg"], "--set", nested)
    assert code == 0 and "RESULT hat=99 rank=100" in out


def _saturated(tmp_path, algebra, kind):
    from pst.fidel import format_fstructure_text, saturate

    path = tmp_path / f"sat_{kind}.fst"
    path.write_text(format_fstructure_text("sat", saturate(algebra, kind)))
    return str(path)


EQ_LEM = "forall x . forall y . (x eq y | ~(x eq y))"


def test_assignment_cap_trips_before_valuing_every_atom(tmp_path, capsys):
    # B4 at rank 3 has 3125 names, hence about 4.9 million ground eq atoms:
    # KEY_CAP trips once the first row of the grid is probed
    import time

    from pst.algebra import boolean_algebra

    path = _saturated(tmp_path, boolean_algebra(2), "comega")
    start = time.perf_counter()
    code, out, err = run(capsys, "--format", "machine", "eval", "--model", path, "--rank", "3", "--formula", EQ_LEM)
    assert code == 2 and out == ""
    assert err == "error: more than 262144 negated ground atoms\n"
    assert time.perf_counter() - start < 1.0


# the reach checks of the benchmark's witness-negation workload, with the
# answers written by hand in perfbench/checks.py: every admissible choice c
# for ~a lies in N_a, so a | c = top; top is in N_top, so ~(x = x) may be
# top; and ||x = x|| = top makes every implication top.  The --quant some
# witness chooses the first option, bottom, at every ~(x eq x) but the
# last, which takes top.
@pytest.mark.parametrize(
    "algebra, kind, rank, quant, formula, result",
    [
        (
            "chain3",
            "comega",
            3,
            "all",
            EQ_LEM,
            "mode=comega rank=3 quant=all_assignments value=2 valid=yes assignment=none",
        ),
        (
            "chain3",
            "n4",
            3,
            "all",
            EQ_LEM,
            "mode=n4 rank=3 quant=all_assignments value=2 valid=yes assignment=none",
        ),
        (
            "chain3",
            "comega",
            3,
            "some",
            "exists x . (x eq x & ~(x eq x))",
            "mode=comega rank=3 quant=some_assignment value=2 valid=yes assignment=3c7e621e9437",
        ),
        (
            "chain3",
            "n4",
            3,
            "some",
            "exists x . (x eq x & ~(x eq x))",
            "mode=n4 rank=3 quant=some_assignment value=2 valid=yes assignment=3c7e621e9437",
        ),
        (
            "b4",
            "comega",
            2,
            "all",
            EQ_LEM,
            "mode=comega rank=2 quant=all_assignments value=3 valid=yes assignment=none",
        ),
        (
            "b4",
            "comega",
            2,
            "all",
            "forall x . (~~(x eq x) -> x eq x)",
            "mode=comega rank=2 quant=all_assignments value=3 valid=yes assignment=none",
        ),
    ],
)
def test_reach_checks_print_their_known_answers(tmp_path, capsys, algebra, kind, rank, quant, formula, result):
    from pst.algebra import boolean_algebra, chain

    path = _saturated(tmp_path, chain(3) if algebra == "chain3" else boolean_algebra(2), kind)
    argv = ("--format", "machine", "eval", "--model", path, "--rank", str(rank), "--quant", quant, "--formula", formula)
    assert run(capsys, *argv) == (0, f"RESULT {result}\n", "")


def test_eval_human_output_past_the_digit_limit(tmp_path, capsys):
    """3-chain eq-LEM at rank 3 has 3 ** 2828 assignments (three choices at
    each of the 2828 eq atoms of value top, one elsewhere): 1350 digits.
    Printed whole, and, past the interpreter's limit on printed digits
    (lowered to its least, 640), by its leading digits and power of ten."""
    from pst.algebra import chain

    path = _saturated(tmp_path, chain(3), "comega")
    argv = ("eval", "--model", path, "--rank", "3", "--formula", EQ_LEM)
    result = "RESULT mode=comega rank=3 quant=all_assignments value=2 valid=yes assignment=none"
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    valid = "valid (all_assignments): yes"
    assert out.splitlines()[2:] == [f"assignments: {3**2828}; value range [2, 2]", valid, result]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == ["assignments: about 1.99e1349; value range [2, 2]", valid, result]


def test_unknown_flag_rejected(files, capsys):
    code, _, _ = run(capsys, "algebra", "check", files["chain3.alg"], "--bogus")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("algebra", "check"),
        ("algebra", "enum"),
        ("algebra", "refinable"),
        ("fstructure", "check"),
        ("fstructure", "saturate"),
        ("fstructure", "sub"),
        ("universe", "enum"),
        ("universe", "hat"),
        ("eval",),
        ("leibniz",),
        ("axiom", "check"),
        ("prove", "check"),
        ("prove", "audit"),
        ("counter", "search"),
    ],
)
def test_every_subcommand_has_help(capsys, argv):
    code = main([*argv, "--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "usage:" in out and "--help" in out


def test_seed_echoed(files, capsys):
    code, out, _ = run(
        capsys,
        "--seed",
        "42",
        "counter",
        "search",
        "--goal",
        "non_explosion",
    )
    assert code == 0 and "seed=42" in out


def _under_400_mb(argv: list[str]) -> subprocess.CompletedProcess:
    """cli.main(argv) in a child process under a 400 MB address-space
    limit, set in the child only."""
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from pst.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(pst.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=120)


def test_out_of_memory_is_an_error_line_with_exit_two(tmp_path):
    """A check that runs out of memory exits 2 with one ``error:`` line, not
    a traceback with exit 1 (which reads as "invalid"): comega collection by
    ``~~(y eq x)`` over B4 at rank 3, which reads phi at every pair of its
    3125 names as a vector over the assignments, under a 400 MB
    address-space limit."""
    from pst.algebra import boolean_algebra

    path = _saturated(tmp_path, boolean_algebra(2), "comega")
    argv = ["axiom", "check", "--axiom", "collection", "--model", path, "--rank", "3"]
    proc = _under_400_mb(argv + ["--formula", "~~(y eq x)", "--var", "x", "--var2", "y"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")


def test_collection_counts_atom_assignments_by_probing_each_pair(tmp_path):
    """n4 collection by ``~(y eq x)`` over B4 at rank 3 counts its
    assignments as the running product of the option counts of the negated
    atoms its pairs read, one pair at a time, and trips ASSIGNMENT_CAP
    under a 400 MB address-space limit, listing no pair."""
    from pst.algebra import boolean_algebra

    path = _saturated(tmp_path, boolean_algebra(2), "n4")
    argv = ["axiom", "check", "--axiom", "collection", "--model", path, "--rank", "3"]
    proc = _under_400_mb(argv + ["--formula", "~(y eq x)", "--var", "x", "--var2", "y"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: more than 50000 atom assignments\n")


# the 3-chain with N_2 = {1}: ~~a has no admissible value where ||a|| = 0,
# since N_0 = {2} and N_2 holds nothing below 0 ("fstructure check" rejects it)
NO_DOUBLE_NEGATION = "fstructure c3 kind=comega\nalgebra c3_alg\nsize 3\nleq\n111\n011\n001\nend\nN 0: 2\nN 1: 2\nN 2: 1\nend\n"


@pytest.mark.parametrize("quant, code, valid", [("all", 0, "yes"), ("some", 1, "no")])
def test_no_admissible_double_negation_means_no_assignment(tmp_path, capsys, quant, code, valid):
    """A comega family in which ~~(x in x) has no admissible value answers
    as an empty N line does: no assignment, valid under all and invalid
    under some, with a RESULT line and no traceback."""
    path = tmp_path / "c3.fst"
    path.write_text(NO_DOUBLE_NEGATION)
    for argv in (
        ["eval", "--formula", "~~(#0 in #0)"],
        ["axiom", "check", "--axiom", "separation", "--formula", "~~(x in x)", "--var", "x"],
        ["axiom", "check", "--axiom", "collection", "--formula", "~~(x in y)", "--var", "x", "--var2", "y"],
        ["axiom", "check", "--axiom", "induction", "--formula", "~~(x in x)", "--var", "x"],
        ["leibniz", "--formula", "~~(x in x)", "--var", "x"],
    ):
        got = run(capsys, "--format", "machine", *argv, "--model", str(path), "--rank", "1", "--quant", quant)
        assert (got[0], got[2]) == (code, ""), argv
        assert got[1].startswith("RESULT ") and f" valid={valid}" in got[1], argv
    _, out, _ = run(capsys, "eval", "--formula", "~~(#0 in #0)", "--model", str(path), "--rank", "1", "--quant", quant)
    assert "assignments: 0; value range [2, 0]" in out


def test_collection_over_b4_at_rank_three_fits_in_400_mb(tmp_path):
    """Collection by ``y eq x`` over the 3125 names of B4 at rank 3 reads
    the choice-free phi as one vector over the names, not as an instance
    per pair of names, and answers under a 400 MB address-space limit."""
    from pst.algebra import boolean_algebra, format_algebra_text

    path = tmp_path / "b4.alg"
    path.write_text(format_algebra_text("b4", boolean_algebra(2)))
    argv = ["--format", "machine", "axiom", "check", "--axiom", "collection", "--model", str(path), "--rank", "3"]
    proc = _under_400_mb(argv + ["--formula", "y eq x", "--var", "x", "--var2", "y"])
    line = "RESULT axiom=collection rank=3 quant=all_assignments value=3 valid=yes\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, line, "")


def test_key_cap_trips_on_its_prediction(tmp_path, capsys):
    """Three nested quantifiers over the 256 rank-3 names of the comega
    3-chain read 256^3 negated eq atoms: KEY_CAP trips on the prediction,
    before the instances are built, in process and through the CLI."""
    import time

    from pst.algebra import chain
    from pst.errors import CapExceeded
    from pst.fidel import saturate
    from pst.names import NameStore
    from pst.syntax import parse_formula
    from pst.valuation import check_valid, make_model

    text = "forall x . forall y . forall z . (~(x eq y) | ~(y eq z))"
    model = make_model(saturate(chain(3), "comega"), NameStore(), 3)
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as exc:
        check_valid(parse_formula(text), model)
    assert time.perf_counter() - start < 1.0
    assert (exc.value.cap, exc.value.limit, exc.value.predicted) == ("KEY_CAP", 262144, 16777216)
    path = _saturated(tmp_path, chain(3), "comega")
    code, out, err = run(capsys, "--format", "machine", "eval", "--model", path, "--rank", "3", "--formula", text)
    assert (code, out, err) == (2, "", "error: more than 262144 negated ground atoms\n")


def test_axiom_check_argument_branches(files, capsys):
    """An unknown axiom and collection without --formula are usage errors;
    collection with a formula prints its RESULT line; pairing with --u and
    no --v checks v = u."""
    from unittest import mock

    from pst import axioms

    base = ["--format", "machine", "axiom", "check", "--model", files["sat3.fst"], "--rank", "2"]
    code, out, err = run(capsys, *base, "--axiom", "bogus")
    assert (code, out) == (2, "") and err.startswith("error: unknown axiom 'bogus'")
    code, out, err = run(capsys, *base, "--axiom", "collection")
    assert (code, out, err) == (2, "", "error: --formula required for collection\n")
    code, out, _ = run(capsys, *base, "--axiom", "collection", "--formula", "y eq x")
    assert (code, out) == (0, "RESULT axiom=collection rank=2 quant=all_assignments value=2 valid=yes\n")
    calls = []

    def pairing(model, **kwargs):
        calls.append(kwargs)
        return axioms.check_pairing(model, **kwargs)

    with mock.patch.dict(axioms.CHECKS, pairing=pairing):
        alone = run(capsys, *base, "--axiom", "pairing", "--u", "3")
        both = run(capsys, *base, "--axiom", "pairing", "--u", "3", "--v", "3")
    assert calls == [{"u": 3, "v": 3}] * 2
    assert alone == both == (0, "RESULT axiom=pairing rank=2 quant=none value=2 valid=yes\n", "")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--axiom", "extensionality", "--u", "1"), "--u is not read by the extensionality check"),
        (("--axiom", "union", "--formula", "x eq x"), "--formula is not read by the union check"),
        (("--axiom", "separation", "--formula", "x eq x", "--v", "1"), "--v is not read by the separation check"),
        (("--axiom", "pairing", "--v", "1"), "--v needs --u"),
        (("--axiom", "union", "--quant", "some"), "--quant is not read by the union check"),
        (("--axiom", "union", "--var", "z"), "--var is not read by the union check"),
        (("--axiom", "separation", "--formula", "x eq x", "--var2", "y"), "--var2 is not read by the separation check"),
    ],
    ids=["extensionality-u", "union-formula", "separation-v", "pairing-v-alone", "union-quant", "union-var", "separation-var2"],
)
def test_axiom_check_rejects_a_flag_it_does_not_read(files, capsys, flags, message):
    """A data flag the axiom's check does not read is a usage error, not
    ignored while some other check prints its RESULT line."""
    base = ["--format", "machine", "axiom", "check", "--model", files["sat3.fst"], "--rank", "2"]
    assert run(capsys, *base, *flags) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--policy", "full", "--count", "1"), "--count is not read by the full policy"),
        (("--policy", "sampled", "--max-dom", "0"), "--max-dom is not read by the sampled policy"),
    ],
    ids=["full-count", "sampled-max-dom"],
)
def test_universe_enum_rejects_a_flag_its_policy_does_not_read(files, capsys, flags, message):
    """--count is read by the sampled policy alone and --max-dom by the
    domres policy alone; given to another policy, each is a usage error."""
    argv = ["--format", "machine", "universe", "enum", "--model", files["chain3.alg"], "--rank", "2"]
    assert run(capsys, *argv, *flags) == (2, "", f"error: {message}\n")
    assert run(capsys, *argv, "--policy", "domres", "--max-dom", "0")[:2] == (0, "RESULT count=1 rank=2 seed=0\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("universe", "enum", "--rank", "-2"), "rank bound must be at least 0, got -2"),
        (("universe", "enum", "--rank", "3", "--policy", "sampled", "--count", "-1"), "--count and --max-dom must be at least 0"),
        (("universe", "enum", "--rank", "3", "--policy", "domres", "--max-dom", "-1"), "--count and --max-dom must be at least 0"),
        (("eval", "--rank", "-1", "--formula", "bot"), "rank bound must be at least 0, got -1"),
    ],
    ids=["rank", "count", "max-dom", "eval-rank"],
)
def test_negative_bounds_are_usage_errors(files, capsys, argv, message):
    """A negative rank, sample count or domain cap is an error, where it
    built an empty or a one-name universe; rank 0 keeps its empty scope."""
    assert run(capsys, *argv, "--model", files["chain3.alg"]) == (2, "", f"error: {message}\n")
    zero = run(capsys, "--format", "machine", "universe", "enum", "--model", files["chain3.alg"], "--rank", "0")
    assert zero == (0, "RESULT count=0 rank=0 seed=0\n", "")
