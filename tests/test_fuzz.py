"""Random bytes and deep nestings through every parser and through the CLI:
a parser returns or raises a typed ``PstError``; a CLI run ends in a
``RESULT`` line, or exits 2 with exactly one ``error:`` line."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pst.algebra import parse_algebra_text
from pst.cli import main
from pst.errors import PstError
from pst.fidel import parse_fstructure_text
from pst.names import parse_hf
from pst.syntax import parse_derivation_text, parse_formula

PARSERS = (parse_formula, parse_algebra_text, parse_fstructure_text, parse_derivation_text, parse_hf)

CHAIN2 = "algebra chain2\nsize 2\nleq\n11\n01\nend\n"
CHAIN3_N4 = "fstructure c3 kind=n4\nalgebra chain3\nsize 3\nleq\n111\n011\n001\nend\nN 0: 2\nN 1: 0 1\nN 2: 0\nend\n"
DERIVATION = "derivation d system=n4\n1: {} [axiom N1]\nqed 1\n"


def nestings():
    """Deep nestings of every bracketing the inputs know, past the depth caps."""
    shapes = (
        lambda n: "(" * n + "p" + ")" * n,
        lambda n: "(" * n + "p",
        lambda n: "~" * n + "p",
        lambda n: "forall x . " * n + "x eq x",
        lambda n: "P(" + "f(" * n + "x" + ")" * (n + 1),
        lambda n: " <-> ".join(["p"] * n),
        lambda n: " -> ".join(["~p"] * n),
        lambda n: "{" * n + "}" * n,
        lambda n: "{" * n,
    )
    return st.builds(lambda shape, n: shape(n), st.sampled_from(shapes), st.integers(1, 1500))


def texts():
    return st.one_of(
        st.binary(max_size=120).map(lambda b: b.decode("utf-8", "replace")),
        st.text(alphabet="(){},.~&|-<>#:=\n pqxPf0123 forallexistsineqbot", max_size=80),
        nestings(),
    )


@given(texts())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_parsers_return_or_raise_typed_errors(text):
    for parse in PARSERS:
        try:
            parse(text)
        except PstError:
            pass


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "chain2.alg").write_text(CHAIN2)
    (d / "c3.fst").write_text(CHAIN3_N4)
    return d


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(argv):
    code, out, err = _run(argv)
    if code == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
    else:
        assert code in (0, 1), (argv, code)
        assert out.splitlines()[-1].startswith("RESULT "), (argv, out)


@given(st.one_of(st.binary(max_size=200), nestings().map(str.encode)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_input_files(model_dir, blob):
    text = blob.decode("utf-8", "replace").replace("\n", " ")
    for i, (command, content) in enumerate((
        (["algebra", "check"], blob),
        (["fstructure", "check"], blob),
        (["prove", "check"], blob),
        (["prove", "check"], DERIVATION.format(text).encode()),  # the input as a proof line
    )):
        path = model_dir / f"input{i}"
        path.write_bytes(content)
        for fmt in ("human", "machine"):
            _assert_contract(["--format", fmt, *command, str(path)])


@given(texts(), st.sampled_from(("chain2.alg", "c3.fst")))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_cli_formulas_and_sets(model_dir, text, model):
    path = str(model_dir / model)
    for argv in (
        ["eval", "--model", path, "--rank", "1", f"--formula={text}"],
        ["leibniz", "--model", path, "--rank", "1", f"--formula={text}"],
        ["universe", "hat", "--model", path, f"--set={text}"],
    ):
        _assert_contract(["--format", "machine", *argv])
