import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pst.syntax import (
    And,
    ArityMismatch,
    Bot,
    Derivation,
    Eq,
    Exists,
    Forall,
    MAX_FORMULA_DEPTH,
    FormulaSyntaxError,
    FormulaTooDeep,
    FuncApp,
    Imp,
    Mem,
    NameConst,
    Neg,
    NegOverQuantifier,
    NotFreeFor,
    Or,
    Pred,
    Signature,
    UnknownSymbol,
    Var,
    formula_to_text,
    free_for,
    free_vars,
    iff,
    iff_sides,
    is_negation_free,
    is_restricted,
    nnf_n4,
    parse_derivation_text,
    parse_formula,
    subformulas,
    substitute,
    universal_closure,
)

x, y, u, v = Var("x"), Var("y"), Var("u"), Var("v")
p, q = Pred("p", ()), Pred("q", ())


# --- parsing ------------------------------------------------------------------


def test_parse_quantified_implication():
    got = parse_formula("forall x . x in u -> x eq v")
    assert got == Forall("x", Imp(Mem(x, u), Eq(x, v)))


def test_parse_negated_conjunction():
    assert parse_formula("~(p & q)") == Neg(And(p, q))


def test_parse_existential_with_negation():
    got = parse_formula("exists x . x in u & ~(x eq v)")
    assert got == Exists("x", And(Mem(x, u), Neg(Eq(x, v))))


def test_precedence_and_associativity():
    assert parse_formula("~p & q | p -> q") == Imp(Or(And(Neg(p), q), p), q)
    assert parse_formula("p -> q -> p") == Imp(p, Imp(q, p))
    assert parse_formula("p & q & p") == And(And(p, q), p)


def test_iff_is_sugar():
    assert parse_formula("p <-> q") == And(Imp(p, q), Imp(q, p))
    assert parse_formula("p <-> q") == iff(p, q)


def test_iff_prints_as_iff():
    for text in ("p <-> q", "p <-> q <-> p", "(p <-> q) <-> p", "(p <-> q) & p", "~(p <-> q)", "p -> q <-> q"):
        assert formula_to_text(parse_formula(text)) == text
    chain = " <-> ".join(["p"] * 40)
    assert formula_to_text(parse_formula(chain)) == chain  # linear, not doubling per term
    # an unshared (p -> q) & (q -> p) keeps its written form
    assert formula_to_text(And(Imp(p, q), Imp(Pred("q", ()), p))) == "(p -> q) & (q -> p)"


def test_atoms_are_parenthesized_only_as_negation_bodies():
    for text in (
        "x in y & y in x",
        "x in y & y in x & x eq y",
        "x in y | y eq x",
        "x in y -> y in x",
        "~(x in y & y in x) <-> ~(x in y) | ~(y in x)",
        "~(x eq y) & ~(y in x)",
    ):
        assert formula_to_text(parse_formula(text)) == text


def test_name_constants_and_bot():
    assert parse_formula("#3 in #0") == Mem(NameConst(3), NameConst(0))
    assert parse_formula("bot -> p") == Imp(Bot(), p)


def test_predicates_and_functions():
    sig = Signature(predicates={"P": 1}, functions={"c": 0, "f": 1})
    assert parse_formula("P(c)", sig) == Pred("P", (FuncApp("c", ()),))
    assert parse_formula("P(f(x))", sig) == Pred("P", (FuncApp("f", (x,)),))
    with pytest.raises(ArityMismatch):
        parse_formula("P(x, y)", sig)
    strict = Signature(predicates={"P": 1}, strict=True)
    with pytest.raises(UnknownSymbol):
        parse_formula("Q(x)", strict)


def test_syntax_error_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("p & ")
    assert exc.value.position == 4


# --- free variables and substitution -----------------------------------------------


def test_free_vars():
    assert free_vars(Forall("x", Mem(x, y))) == {"y"}
    assert free_vars(Mem(x, x)) == {"x"}
    assert free_vars(parse_formula("forall x . exists y . x in y")) == set()


def test_substitute_basics():
    assert substitute(Mem(x, u), "x", v) == Mem(v, u)
    quantified = Forall("x", Mem(x, u))
    assert substitute(quantified, "x", v) == quantified
    assert substitute(Mem(x, u), "x", x) == Mem(x, u)


def test_substitute_capture_rejected():
    with pytest.raises(NotFreeFor):
        substitute(Exists("y", Mem(x, y)), "x", y)
    assert not free_for(y, "x", Exists("y", Mem(x, y)))


def test_universal_closure_lexicographic():
    phi = Mem(y, x)
    assert universal_closure(phi) == Forall("x", Forall("y", Mem(y, x)))
    assert universal_closure(p) == p


# --- negation normal form -----------------------------------------------------------


def test_nnf_de_morgan_laws():
    assert nnf_n4(Neg(And(p, q))) == Or(Neg(p), Neg(q))
    assert nnf_n4(Neg(Or(p, q))) == And(Neg(p), Neg(q))
    assert nnf_n4(Neg(Imp(p, q))) == And(p, Neg(q))
    assert nnf_n4(Neg(Neg(p))) == p


def test_nnf_rejects_quantified_negation():
    with pytest.raises(NegOverQuantifier):
        nnf_n4(Neg(Forall("x", Pred("P", (x,)))))


def test_restricted_and_negation_free():
    assert is_restricted(parse_formula("forall z . z in x -> z in y"))
    assert not is_restricted(parse_formula("forall z . z in x"))
    assert is_negation_free(parse_formula("p -> q | p"))
    assert not is_negation_free(parse_formula("p -> ~q"))


def test_nesting_depth_is_capped():
    inner = MAX_FORMULA_DEPTH - 1
    assert parse_formula("~" * inner + "p") is not None
    assert parse_formula("(" * inner + "p" + ")" * inner) == p
    assert parse_formula(" -> ".join(["p"] * MAX_FORMULA_DEPTH)) is not None
    assert parse_formula(" <-> ".join(["p"] * (MAX_FORMULA_DEPTH // 2))) is not None
    for text in (
        "~" * MAX_FORMULA_DEPTH + "p",
        "(" * (MAX_FORMULA_DEPTH + 1) + "p" + ")" * (MAX_FORMULA_DEPTH + 1),
        " | ".join(["p"] * (MAX_FORMULA_DEPTH + 1)),
        " -> ".join(["p"] * 2000),
        " <-> ".join(["p"] * 2000),
        " <-> ".join(["p"] * (MAX_FORMULA_DEPTH // 2 + 1)),
        "forall x . " * MAX_FORMULA_DEPTH + "p",
        "P(" + "f(" * MAX_FORMULA_DEPTH + "x" + ")" * (MAX_FORMULA_DEPTH + 1),
    ):
        with pytest.raises(FormulaTooDeep):
            parse_formula(text)


# --- property tests -------------------------------------------------------------------


def terms(vars_only=False):
    base = st.sampled_from([x, y, u, v])
    if vars_only:
        return base
    return st.one_of(base, st.integers(0, 5).map(NameConst))


@functools.lru_cache(maxsize=None)
def formulas(depth=3):
    """Formulas at most depth connectives deep; each depth's strategy is
    built once, not on every draw."""
    if depth == 0:
        return st.one_of(
            st.sampled_from([p, q, Bot()]),
            st.builds(Mem, terms(), terms()),
            st.builds(Eq, terms(), terms()),
        )
    sub = formulas(depth - 1)
    return st.one_of(
        formulas(0),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
        st.builds(Neg, sub),
        st.builds(Forall, st.sampled_from(["x", "y"]), sub),
        st.builds(Exists, st.sampled_from(["x", "y"]), sub),
    )


@given(formulas())
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(phi):
    assert parse_formula(formula_to_text(phi)) == phi


@given(formulas())
@settings(max_examples=200, deadline=None)
def test_substitute_identity(phi):
    for name in free_vars(phi):
        assert substitute(phi, name, Var(name)) == phi


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_subformulas_pre_order(phi):
    assert list(subformulas(phi)) == [
        sub for sub in _walk(phi) if not isinstance(sub, (Var, NameConst, FuncApp))
    ]


def quantifier_free():
    return formulas(2).filter(
        lambda f: not any(
            isinstance(sub, (Forall, Exists)) for sub in _walk(f)
        )
    )


def _walk(phi):
    yield phi
    sides = iff_sides(phi)
    if sides is not None:  # a <-> visits its shared sides once
        for sub in sides:
            yield from _walk(sub)
        return
    for attr in ("left", "right", "body"):
        sub = getattr(phi, attr, None)
        if sub is not None and not isinstance(sub, (str, tuple)):
            yield from _walk(sub)


@given(quantifier_free())
@settings(max_examples=200, deadline=None)
def test_nnf_idempotent_and_preserves_free_vars(phi):
    once = nnf_n4(phi)
    assert nnf_n4(once) == once
    assert free_vars(once) == free_vars(phi)
    # negation sits only on atoms afterwards
    for sub in _walk(once):
        if isinstance(sub, Neg):
            assert isinstance(sub.body, (Mem, Eq, Pred, Bot))


# --- derivation files ------------------------------------------------------------------


def test_parse_derivation_round():
    text = """
derivation demo system=qcw
premise 1: p -> q
1: p -> q [premise 1]
2: p | ~p [axiom CW1]
qed 2
"""
    d = parse_derivation_text(text)
    assert isinstance(d, Derivation)
    assert d.system == "qcw"
    assert d.premises == (Imp(p, q),)
    assert d.lines[1].just == ("axiom", "CW1")
    assert d.qed == 2


def test_parse_derivation_rejects_garbage():
    from pst.syntax import DerivationFormatError

    with pytest.raises(DerivationFormatError):
        parse_derivation_text("derivation x system=zfc\nqed 1")
    with pytest.raises(DerivationFormatError):
        parse_derivation_text("derivation x system=n4\n1: p [because]\nqed 1")
    with pytest.raises(DerivationFormatError):
        parse_derivation_text("derivation x system=n4\n1: p [axiom N1]")
