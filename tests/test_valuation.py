import collections
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    Reference,
    absoluteness,
    component_verdict,
    enumerated_induction,
    enumerated_leibniz,
    enumerated_verdicts,
    hat_lemma,
    reference_assignments,
    unshared,
)

from pst.algebra import boolean_algebra, chain, enumerate_heyting
from pst.axioms import check_induction, check_separation
from pst.errors import CapExceeded, PstError
from pst.fidel import find_algebra_embedding, saturate
from pst.names import NameStore, UnknownChild, enumerate_universe
from pst.syntax import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    Imp,
    Mem,
    NameConst,
    Neg,
    NegOverQuantifier,
    Or,
    Pred,
    MAX_FORMULA_DEPTH,
    Signature,
    Var,
    formula_to_text,
    free_for,
    free_vars,
    iff,
    iff_sides,
    nnf_n4,
    parse_formula,
    subformulas,
    substitute,
    universal_closure,
)
from pst.valuation import (
    ASSIGNMENT_CAP,
    EMPTY_ASSIGNMENT,
    QUANTIFICATIONS,
    Assignment,
    EvalContext,
    EvalError,
    InvalidAssignment,
    NotNegationFree,
    NotRestricted,
    UncoveredNegation,
    Verdict,
    check_hat_lemma,
    check_leibniz,
    check_maximum_principle,
    check_subalgebra_absolute,
    check_valid,
    enumerate_assignments,
    eval_sentence,
    make_model,
    sweep_assignments,
)

x, y = Var("x"), Var("y")


# --- membership / equality recursion ------------------------------------------------


def test_equality_reflexive_symmetric_rank2(bool_model, heyting3_model):
    for model in (bool_model, heyting3_model):
        ctx = EvalContext(model)
        alg = model.algebra
        for u in model.scope:
            assert ctx.eval_eq(u, u) == alg.top
            for v in model.scope:
                assert ctx.eval_eq(u, v) == ctx.eval_eq(v, u)


def test_membership_degree_bounded_by_entry(bool_model, heyting3_model):
    for model in (bool_model, heyting3_model):
        ctx = EvalContext(model)
        alg = model.algebra
        for u in model.scope:
            for c, a in model.store.get(u).entries:
                assert alg.le(a, ctx.eval_mem(c, u))


def test_single_join_step_example(heyting3_model):
    # membership of the empty name in {(empty, a)} is a ^ top = a
    ctx = EvalContext(heyting3_model)
    store = heyting3_model.store
    e = store.empty_name()
    ua = store.mk_name([(e, 1)])
    assert ctx.eval_mem(e, ua) == 1


def _agree_on_pairs(model, pairs):
    ctx, ref = EvalContext(model), Reference(model)
    for u, v in pairs:
        assert ctx.eval_eq(u, v) == ref.eq(u, v), (u, v)
        assert ctx.eval_mem(u, v) == ref.mem(u, v), (u, v)
    return ctx, ref


def test_memoization_transparency(algebras_to_5, chain3, bool4):
    """The bit-sliced kernel against the plain recursion (tests/reference.py)."""
    for alg in algebras_to_5:
        for rank in (1, 2):
            model = make_model(alg, NameStore(), rank)
            _agree_on_pairs(model, itertools.product(model.scope, repeat=2))
    model = make_model(chain3, NameStore(), 3)
    ctx, ref = _agree_on_pairs(model, itertools.product(model.scope, repeat=2))
    # names made after the rows were filled (witnesses) are read exactly too
    rng = random.Random(3)
    store = model.store
    for _ in range(60):
        entries = {rng.randrange(len(store)): rng.randrange(3) for _ in range(rng.randrange(4))}
        store.mk_name(entries.items())
        for _ in range(10):
            u, v = rng.randrange(len(store)), rng.randrange(len(store))
            assert ctx.eval_eq(u, v) == ref.eq(u, v), (u, v)
            assert ctx.eval_mem(u, v) == ref.mem(u, v), (u, v)
    model = make_model(bool4, NameStore(), 3)
    rng = random.Random(5)
    _agree_on_pairs(model, [(rng.choice(model.scope), rng.choice(model.scope)) for _ in range(1500)])


def _choice_free_formulas(with_negation, names):
    leaf = st.sampled_from(["x", "y", "z"]).map(Var) | st.sampled_from(names).map(NameConst)
    atoms = st.builds(Eq, leaf, leaf) | st.builds(Mem, leaf, leaf) | st.just(Bot())

    def grow(sub):
        var = st.sampled_from(["x", "y", "z"])
        out = (
            st.builds(And, sub, sub)
            | st.builds(Or, sub, sub)
            | st.builds(Imp, sub, sub)
            | st.builds(iff, sub, sub)
            | st.builds(Forall, var, sub)
            | st.builds(Exists, var, sub)
            | st.builds(lambda v, t, b: Forall(v, Imp(Mem(Var(v), t), b)), var, leaf, sub)
            | st.builds(lambda v, t, b: Exists(v, And(Mem(Var(v), t), b)), var, leaf, sub)
        )
        return out | st.builds(Neg, sub) if with_negation else out

    return st.recursive(atoms, grow, max_leaves=5).map(universal_closure)


def _fold_models():
    from pst.algebra import boolean_algebra

    out = []
    for structure, rank in (
        (chain(2), 2),
        (chain(3), 2),
        (saturate(chain(3), "comega"), 2),
        (saturate(boolean_algebra(2), "n4"), 2),
    ):
        model = make_model(structure, NameStore(), rank)
        out.append(model)
        out.append(model.with_flags(bounded_opt=True))
    return out


_FOLD_MODELS = _fold_models()


@pytest.mark.parametrize("model", _FOLD_MODELS, ids=lambda m: f"{m.mode}-{m.bounded_opt}")
def test_vector_fold_matches_scalar_reference(model):
    """Quantifiers folded as vectors against instance-by-instance evaluation,
    <-> sides shared."""
    names = list(model.scope[:2]) + list(model.scope[-2:])
    negation = model.mode in ("boolean", "heyting")

    @given(_choice_free_formulas(negation, names))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def check(phi):
        assert eval_sentence(phi, model) == Reference(model).eval(phi), formula_to_text(phi)

    check()


def _choice_free_members(model):
    """Members with no negation choice in model's mode: atoms at both
    sides, a self-membership, quantified members, and in boolean/heyting
    mode a negation."""
    out = []
    for k in sorted({model.scope[0], model.scope[-1]}):
        w = NameConst(k)
        out += [Mem(x, w), Mem(w, x), Eq(x, w), Forall("y", Imp(Mem(y, x), Mem(y, w)))]
        if model.mode in ("boolean", "heyting"):
            out.append(Neg(Mem(x, w)))
    return out + [Mem(x, x), Exists("y", Mem(y, x))]


def test_leibniz_vector_path_matches_reference():
    """check_leibniz decides a choice-free member by the congruence lemma,
    reading it as one vector over the names: against
    ||u = v|| -> (phi(u) -> phi(v)) met over every pair by the textbook
    clauses, over every algebra of size <= 5 and every saturated structure
    of size <= 4, at ranks 1 and 2, with and without bounded_opt, under both
    quantifications."""
    structures = [*enumerate_heyting(5), *(saturate(alg, kind) for alg in enumerate_heyting(4) for kind in ("comega", "n4"))]
    for structure in structures:
        for rank in (1, 2):
            for flag in (False, True):
                model = make_model(structure, NameStore(), rank, bounded_opt=flag)
                ref = Reference(model)
                alg = model.algebra
                for phi in _choice_free_members(model):
                    lo = alg.top
                    for u in model.scope:
                        for v in model.scope:
                            val = alg.imp_(ref.eval(phi, {"x": u}), ref.eval(phi, {"x": v}))
                            lo = alg.meet_(lo, alg.imp_(ref.eq(u, v), val))
                    for quant in QUANTIFICATIONS:
                        verdict = check_leibniz(model, [("x", phi)], rank, quant)
                        got = (verdict.value_lo, verdict.valid, verdict.detail)
                        assert got == (lo, lo == alg.top, ()), (model.mode, alg.size, rank, flag, formula_to_text(phi))


def test_leibniz_predicate_member_is_compared_pair_by_pair():
    """A predicate table need not respect equality: P(x) with P(#0) = top
    and bottom elsewhere fails at the first pair whose equality is not
    bottom."""
    model = make_model(chain(3), NameStore(), 2)
    table = {("P", (nid,)): model.algebra.bottom for nid in model.scope}
    table[("P", (0,))] = model.algebra.top
    model = make_model(chain(3), model.store, 2, prop_values=table)
    phi = Pred("P", (x,))
    for quant, fp in (("all_assignments", "none"), ("some_assignment", "all-fail")):
        verdict = check_leibniz(model, [("x", phi)], 2, quant)
        assert not verdict.valid
        assert verdict.detail == ("u=#0", "v=#1", "phi=P(x)", f"assignment={fp}")


def test_leibniz_choice_free_family_reads_no_eq_row_per_name(monkeypatch):
    """A choice-free family is read once per member, as one vector over the
    names: check_leibniz reads the eq rows those reads read, and no row
    per name u."""
    from pst.kernel import EqMemKernel

    rows = []
    eqrow = EqMemKernel.eqrow

    def counting(self, u, need):
        rows.append(u)
        return eqrow(self, u, need)

    monkeypatch.setattr(EqMemKernel, "eqrow", counting)
    model = make_model(chain(3), NameStore(), 3)
    family = [("x", parse_formula(text)) for text in ("x in #17", "exists y . (y in x)", "forall y . (y in x -> y in #17)")]
    ctx = EvalContext(model)
    dom = ctx.domain(model.scope)
    for var, phi in family:
        ctx.vector(phi, {}, var, dom, model)
    read = len(rows)
    rows.clear()
    assert check_leibniz(model, family, 3).valid
    assert len(rows) == read < len(model.scope)


# --- sentence evaluation ---------------------------------------------------------------


def test_bot_and_exists_self(bool_model):
    alg = bool_model.algebra
    assert eval_sentence(Bot(), bool_model) == alg.bottom
    u = bool_model.scope[1]
    assert eval_sentence(Exists("x", Eq(x, NameConst(u))), bool_model) == alg.top


def test_heyting_negation_is_pseudocomplement(heyting3_model):
    ctx = EvalContext(heyting3_model)
    store = heyting3_model.store
    e = store.empty_name()
    ua = store.mk_name([(e, 1)])  # ||e in ua|| = 1 (the middle value)
    alg = heyting3_model.algebra
    got = eval_sentence(Neg(Mem(NameConst(e), NameConst(ua))), heyting3_model, EMPTY_ASSIGNMENT, ctx)
    assert got == alg.imp_(1, alg.bottom) == 0


def test_deepest_parsable_formula_evaluates(heyting3_model, n43_model):
    text = "forall x . " + "~" * (MAX_FORMULA_DEPTH - 2) + "x eq x"
    phi = parse_formula(text)
    assert check_valid(phi, heyting3_model).valid  # an even number of ~
    assert check_valid(phi, n43_model).valid  # n4 cancels ~~


def test_open_formula_rejected(bool_model):
    with pytest.raises(EvalError):
        eval_sentence(Mem(x, y), bool_model)


# --- negation assignments ----------------------------------------------------------------


def test_no_negation_single_empty_assignment(comega3_model):
    u = comega3_model.scope[0]
    asgs = enumerate_assignments(Eq(NameConst(u), NameConst(u)), comega3_model)
    assert asgs == [EMPTY_ASSIGNMENT]


def test_single_choice_when_negset_singleton(comega3_model):
    # ||e in empty|| = 0 and N_0 = {top} on the saturated 3-chain
    e = comega3_model.store.empty_name()
    phi = Neg(Mem(NameConst(e), NameConst(e)))
    asgs = enumerate_assignments(phi, comega3_model)
    assert len(asgs) == 1
    assert eval_sentence(phi, comega3_model, asgs[0]) == comega3_model.algebra.top


def test_three_choices_over_top_valued_atom(comega3_model):
    e = comega3_model.store.empty_name()
    phi = Neg(Eq(NameConst(e), NameConst(e)))
    asgs = enumerate_assignments(phi, comega3_model)
    assert len(asgs) == 3
    values = sorted(eval_sentence(phi, comega3_model, a) for a in asgs)
    assert values == [0, 1, 2]


def test_same_atom_same_value_everywhere(comega3_model):
    e = comega3_model.store.empty_name()
    atom = Eq(NameConst(e), NameConst(e))
    phi = And(Neg(atom), Neg(atom))
    alg = comega3_model.algebra
    for asg in enumerate_assignments(phi, comega3_model):
        v = eval_sentence(phi, comega3_model, asg)
        left = eval_sentence(Neg(atom), comega3_model, asg)
        assert v == alg.meet_(left, left)


def test_comega_double_negation_bounded(comega3_model):
    e = comega3_model.store.empty_name()
    atom = Eq(NameConst(e), NameConst(e))  # value top
    phi = Neg(Neg(atom))
    alg = comega3_model.algebra
    for asg in enumerate_assignments(phi, comega3_model):
        assert alg.le(eval_sentence(phi, comega3_model, asg), alg.top)
    # inner choice 0 forces the outer within N_0 = {top} and <= top
    # inner choice top allows outer 0, 1, or 2 but each <= ||atom|| = top
    asgs = enumerate_assignments(phi, comega3_model)
    assert len(asgs) == 5  # frozen: inner 0 -> 1 option; 1 -> 1; 2 -> 3


def test_comega_nested_negation_reuses_inner_values(monkeypatch):
    """forall x . ~^30 (x eq x) at rank 1: each double negation reads its
    bound from the inner negation's own step, so evaluation stays linear in
    the nesting (evaluating the doubly negated body again made it grow like
    the Fibonacci numbers: 4.6 million calls at 18 levels)."""
    import pst.valuation as val_mod

    model = make_model(saturate(chain(3), "comega"), NameStore(), 1)
    phi = parse_formula("forall x . " + "~" * 30 + "(x eq x)")
    calls = 0
    plain_eval = val_mod._eval

    def counting_eval(*args):
        nonlocal calls
        calls += 1
        return plain_eval(*args)

    monkeypatch.setattr(val_mod, "_eval", counting_eval)
    verdict = check_valid(phi, model)
    assert (verdict.value_lo, verdict.valid, verdict.n_assignments) == (0, False, 271)
    assert calls < 5_000


def test_comega_nested_choices_are_validated(comega3_model):
    e = comega3_model.store.empty_name()
    key = ("eq", e, e)  # value top, N_top = {0, 1, 2}
    phi = Neg(Neg(Neg(Eq(NameConst(e), NameConst(e)))))

    def asg(atom, middle, outer):
        return Assignment(atoms=((key, atom),), occs=((("occ", (), ()), outer), (("occ", (0,), ()), middle)))

    # ~a = 0, ~~a = 2 in N_0 and <= top, ~~~a = 0 in N_2 and <= ||~a|| = 0
    assert asg(0, 2, 0) in enumerate_assignments(phi, comega3_model)
    assert eval_sentence(phi, comega3_model, asg(0, 2, 0)) == 0
    for bad, message in (
        (asg(99, 2, 0), "not in N_2 for"),  # the atom's choice
        (asg(0, 1, 0), "not in N_0 at"),  # the middle occurrence's choice
        (asg(0, 2, 1), "exceeds 0"),  # the outer double-negation bound
    ):
        with pytest.raises(InvalidAssignment, match=message):
            eval_sentence(phi, comega3_model, bad)


def test_comega_per_occurrence_choices_are_independent(comega3_model):
    e = comega3_model.store.empty_name()
    atom = Eq(NameConst(e), NameConst(e))
    compound = And(atom, atom)
    phi = And(Neg(compound), Neg(compound))
    asgs = enumerate_assignments(phi, comega3_model)
    # two occurrences, three admissible values each
    assert len(asgs) == 9
    vals = {
        (
            eval_sentence(Neg(compound), comega3_model, a)
            if False
            else eval_sentence(phi, comega3_model, a)
        )
        for a in asgs
    }
    assert vals == {0, 1, 2}  # meets of all pairs


def test_n4_pushes_and_atom_choices(n43_model):
    alg = n43_model.algebra
    e = n43_model.store.empty_name()
    atom = Eq(NameConst(e), NameConst(e))
    # double negation cancels with no choice consumed
    assert eval_sentence(Neg(Neg(atom)), n43_model) == alg.top
    # de morgan: ~(a & a) = ~a v ~a needs one atom choice
    asgs = enumerate_assignments(Neg(And(atom, atom)), n43_model)
    assert len(asgs) == 3
    # ~(a -> b) = a ^ ~b
    e_in_e = Mem(NameConst(e), NameConst(e))  # value bottom, N_0 = {top}
    phi = Neg(Imp(atom, e_in_e))
    (asg,) = enumerate_assignments(phi, n43_model)
    assert eval_sentence(phi, n43_model, asg) == alg.meet_(alg.top, alg.top)


def _negation_formulas(leaves):
    atoms = st.builds(Eq, leaves, leaves) | st.builds(Mem, leaves, leaves)

    def grow(sub):
        return st.builds(And, sub, sub) | st.builds(Or, sub, sub) | st.builds(Imp, sub, sub) | st.builds(Neg, sub)

    return st.recursive(atoms, grow, max_leaves=3)


@pytest.mark.parametrize("size", [3, 4])
def test_n4_negation_clauses_under_every_assignment(size):
    """Over the saturated n4 chain, negation of a compound obeys the n4
    clauses under every enumerated assignment, and pushing negation to the
    atoms first (nnf_n4) leaves the verdict as it was."""
    model = make_model(saturate(chain(size), "n4"), NameStore(), 1)
    alg = model.algebra
    names = st.sampled_from(model.scope[:2]).map(NameConst)

    @given(_negation_formulas(names), _negation_formulas(names), _negation_formulas(names | st.just(x)))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def check(a, b, body):
        clauses = And(And(Neg(And(a, b)), Neg(Or(a, b))), And(Neg(Imp(a, b)), Neg(Neg(a))))
        for asg in enumerate_assignments(clauses, model):
            def val(phi):
                return eval_sentence(phi, model, asg)

            assert val(Neg(And(a, b))) == alg.join_(val(Neg(a)), val(Neg(b)))
            assert val(Neg(Or(a, b))) == alg.meet_(val(Neg(a)), val(Neg(b)))
            assert val(Neg(Imp(a, b))) == alg.meet_(val(a), val(Neg(b)))
            assert val(Neg(Neg(a))) == val(a)
        phi = Forall("x", body)
        assert check_valid(phi, model).result_line() == check_valid(nnf_n4(phi), model).result_line()

    check()


def test_n4_rejects_negated_quantifier(n43_model):
    phi = Neg(Forall("x", Eq(x, x)))
    with pytest.raises(NegOverQuantifier):
        enumerate_assignments(phi, n43_model)
    with pytest.raises(NegOverQuantifier):
        eval_sentence(phi, n43_model)


def test_comega_allows_negated_quantifier(comega3_model):
    phi = Neg(Forall("x", Eq(x, x)))  # body value top
    asgs = enumerate_assignments(phi, comega3_model)
    assert len(asgs) == 3
    vals = {eval_sentence(phi, comega3_model, a) for a in asgs}
    assert vals == {0, 1, 2}


def test_uncovered_and_invalid_assignments(comega3_model):
    e = comega3_model.store.empty_name()
    phi = Neg(Eq(NameConst(e), NameConst(e)))
    with pytest.raises(UncoveredNegation):
        eval_sentence(phi, comega3_model, EMPTY_ASSIGNMENT)
    bad = Assignment(atoms=((("eq", e, e), 99),))
    with pytest.raises(InvalidAssignment):
        eval_sentence(phi, comega3_model, bad)


def test_assignment_cap(comega3_model):
    e = comega3_model.store.empty_name()
    atom = Eq(NameConst(e), NameConst(e))
    compound = And(atom, atom)
    phi = And(Neg(compound), And(Neg(compound), Neg(compound)))
    with pytest.raises(CapExceeded) as exc:
        enumerate_assignments(phi, comega3_model, cap=10)
    assert (exc.value.cap, exc.value.limit) == ("ASSIGNMENT_CAP", 10)
    assert exc.value.predicted > 10 and "more than 10" in str(exc.value)


def test_comega_assignment_cap_trips_before_any_assignment_is_built(monkeypatch):
    """The count of comega assignments trips the cap from each atom
    combination's alternatives, before one Assignment is built.  The
    sentence is one component: its five instances of ~~(x eq x) -> x eq x
    (7 assignments each, 16807 together) sit under an implication, which
    opens no prefix.  At cap 1000 the atom probe would trip first (1024
    combinations); at 2000 the trip is in the assignment count."""
    import pst.valuation as val_mod

    built = 0

    class Counting(Assignment):
        def __init__(self, *args, **kwargs):
            nonlocal built
            built += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(val_mod, "Assignment", Counting)
    model = make_model(saturate(chain(4), "comega"), NameStore(), 2)
    phi = parse_formula("#0 in #0 -> forall x . (~~(x eq x) -> x eq x)")
    with pytest.raises(CapExceeded) as exc:
        check_valid(phi, model, cap=2000)
    assert str(exc.value) == "more than 2000 assignments"
    assert (exc.value.cap, exc.value.limit, exc.value.predicted) == ("ASSIGNMENT_CAP", 2000, 2001)
    assert built == 0


def test_comega_component_cap_names_the_occurrence_choices():
    """A component of several instances (every x shares the key of
    ~(#0 eq #0)) whose one atom combination has more occurrence choices
    than the cap trips as the quantifier's product over its instances
    does in the enumeration oracle, with the same message and fields."""
    model = make_model(saturate(chain(3), "comega"), NameStore(), 2)
    phi = parse_formula("forall x . (~(x eq x & x eq x) | ~(#0 eq #0))")
    _same_outcome(lambda: enumerated_verdicts(phi, model, 50), lambda: check_valid(phi, model, cap=50))
    with pytest.raises(CapExceeded, match="more than 50 occurrence choices"):
        check_valid(phi, model, cap=50)


# --- validity ---------------------------------------------------------------------------


def test_check_valid_contradiction_modes(comega3_model):
    e = comega3_model.store.empty_name()
    alpha = Eq(NameConst(e), NameConst(e))
    phi = And(alpha, Neg(alpha))
    some = check_valid(phi, comega3_model, "some_assignment")
    allq = check_valid(phi, comega3_model, "all_assignments")
    assert some.valid and not allq.valid
    assert some.value_hi == comega3_model.algebra.top
    assert allq.falsifier is not None
    assert "rank-relative" in allq.notes


def test_check_valid_lem_saturated(comega3_model):
    e = comega3_model.store.empty_name()
    ua = comega3_model.store.mk_name([(e, 1)])
    for atom in (Eq(NameConst(e), NameConst(e)), Mem(NameConst(e), NameConst(ua))):
        verdict = check_valid(Or(atom, Neg(atom)), comega3_model, "all_assignments")
        assert verdict.valid


def test_result_line_format(bool_model):
    verdict = check_valid(Eq(NameConst(0), NameConst(0)), bool_model)
    line = verdict.result_line()
    assert line.startswith("RESULT mode=boolean rank=2 quant=all_assignments ")
    assert "valid=yes" in line and "assignment=none" in line


# --- the assignment index ----------------------------------------------------------------

# the sentences of the benchmark's witness-negation workload, and one more
_WITNESS_SENTENCES = [
    parse_formula(text)
    for text in (
        "forall x . forall y . (x eq y | ~(x eq y))",
        "forall x . (x eq x | ~(x eq x))",
        "exists x . (x eq x & ~(x eq x))",
        "forall x . forall y . (~~(x in y) -> x in y)",
        "forall x . (~~(x eq x) -> x eq x)",
        "forall x . forall y . (~(x in y & y in x) <-> (~(x in y) | ~(y in x)))",
        # not symmetric in its atoms, so a misnumbered index shows
        "forall x . forall y . (~(x in y) -> ~(x eq y))",
    )
]


def _saturated_models():
    return [
        make_model(saturate(alg, kind), NameStore(), rank)
        for alg in enumerate_heyting(5)
        for kind in ("comega", "n4")
        for rank in (1, 2)
    ]


def _same_outcome(oracle, program):
    """program() returns what oracle() returns, or raises what it raises:
    the same error and message, and for a cap trip the same fields."""
    try:
        want = oracle()
    except PstError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))) as got:
            program()
        if isinstance(exc, CapExceeded):
            assert (got.value.cap, got.value.limit, got.value.predicted) == (exc.cap, exc.limit, exc.predicted)
        return
    assert program() == want


def _agrees_with_enumeration(phi, model, cap=ASSIGNMENT_CAP, raised=None):
    """check_valid under both quantifications against the loop over every
    assignment: equal verdicts, so equal RESULT lines, n_assignments, value
    range, witness and falsifier.  check_valid caps each independent
    component, the loop the whole sentence: where check_valid trips, the
    loop must trip alike, and where only the loop trips, it runs again at
    the raised cap; where it trips there too, value range, validity and
    n_assignments are compared with the brute-force per-component reference
    (tests/reference.py), and the witness and the falsifier re-verified."""
    try:
        got = {quant: check_valid(phi, model, quant, cap=cap) for quant in QUANTIFICATIONS}
    except PstError as exc:
        with pytest.raises(type(exc)) as want:
            enumerated_verdicts(phi, model, cap)
        if isinstance(exc, CapExceeded):  # a component past the cap puts the sentence past it
            assert (want.value.cap, want.value.limit) == (exc.cap, exc.limit)
        else:
            assert str(want.value) == str(exc)
        return
    for limit in (cap, raised) if raised else (cap,):
        try:
            want = enumerated_verdicts(phi, model, limit)
        except CapExceeded:
            continue
        assert got == want, formula_to_text(phi)
        return
    _agrees_with_components(phi, model, got)


def _agrees_with_components(phi, model, verdicts):
    alg = model.algebra
    allq, some = verdicts["all_assignments"], verdicts["some_assignment"]
    assert (allq.value_lo, allq.value_hi, allq.valid, some.valid, allq.n_assignments) == component_verdict(
        phi, model
    ), formula_to_text(phi)
    for verdict in (allq, some):
        assert (verdict.witness is not None) == some.valid
        assert (verdict.falsifier is not None) == (not allq.valid)
        if verdict.witness is not None:
            assert eval_sentence(phi, model, verdict.witness) == alg.top
        if verdict.falsifier is not None:
            assert eval_sentence(phi, model, verdict.falsifier) != alg.top


# instances that share keys: a symmetric eq key, x in y with y in x, a
# closed negated atom that every instance reads; meet and join prefixes
_SHARED_SENTENCES = [
    parse_formula(text)
    for text in (
        "forall x . forall y . (~(x eq y) | x in y)",
        "forall x . forall y . (~(x in y) | ~(y in x))",
        "forall x . (~(#0 eq #0) | ~(x in x))",
        "exists x . exists y . (~(x eq y) & ~(y in x))",
        "exists x . (~(x in #0) & ~(#0 in x))",
        "forall x . ((forall y . ~(x in y)) & ~(x eq #0))",
        "exists x . ~(x eq x) | forall y . ~(y in #0)",
        "forall x . exists y . ~(y eq x)",
        "exists x . (~(x in #1) & ~(#1 in x))",
        # joins of values below top reach top over B4
        "exists x . exists y . (x in y & ~(x in y))",
        "exists x . ~(#1 in x)",
        "exists x . (x eq #2 & ~(x eq #2))",
        # rows whose reads without y differ; in comega one holds a choice
        "forall x . forall y . (~(x eq y) | exists z . z in x)",
        "forall x . forall y . (~(x eq y) | (~(exists z . z in x) | exists z . x in z))",
        "forall x . forall y . (~(x in y) | (~(exists z . z in x) | exists z . x in z))",
        # a key of a grid position read by another instance, or by another grid
        "(forall x . ~(x in #0)) & ~(#1 in #0)",
        "(forall x . forall y . (~(x eq y) | ~(x in y))) & ~(#1 in #2)",
        "(forall x . ~(x in #0)) & (forall y . ~(y in #0) | #0 eq #0)",
    )
]


def test_assignment_index_matches_enumeration_on_witness_sentences():
    """Every saturated comega/n4 structure of size <= 5 at ranks 1 and 2.
    The enumeration runs again at a raised cap where it trips; the cap is
    lower where a comega negated compound lists every assignment."""
    for model in _saturated_models():
        for phi in _WITNESS_SENTENCES + _SHARED_SENTENCES:
            indexed = model.mode == "n4" or EvalContext(model).compound_free(phi)
            _agrees_with_enumeration(phi, model, cap=1100 if indexed else 100, raised=3000 if indexed else 400)


def test_decomposition_matches_one_sweep_under_bounded_opt():
    """Under bounded_opt the enumeration oracle walks the whole scope, so
    the split is held against the sentence swept as one instance: grids
    for sentences whose ranges are the scope, scalar instances where a
    bounded quantifier's range depends on the names bound."""
    cap = 3000
    for text in (
        "forall x . forall y . (x eq y | ~(x eq y))",
        "exists x . exists y . (x in y & ~(x in y))",
        "forall x . forall y . (y in x -> ~(y eq y))",
        "forall x . forall y . (~(x in y) | (exists z . (z in y & ~(z eq x))))",
        "exists x . ~(x eq x) | (forall y . (y in #0 -> ~(y in y)))",
    ):
        phi = parse_formula(text)
        for plain in _saturated_models():
            model = plain.with_flags(bounded_opt=True)
            try:
                sweep = sweep_assignments(phi, model, EvalContext(model), cap)
            except CapExceeded:
                continue
            want = {
                quant: Verdict(
                    mode=model.mode,
                    quantification=quant,
                    rank_bound=model.rank_bound,
                    value_lo=sweep.lo,
                    value_hi=sweep.hi,
                    valid=sweep.valid(quant),
                    n_assignments=sweep.size,
                    witness=sweep.first(sweep.holding),
                    falsifier=sweep.first(sweep.failing),
                    notes=("rank-relative",),
                )
                for quant in QUANTIFICATIONS
            }
            assert {quant: check_valid(phi, model, quant, cap=cap) for quant in QUANTIFICATIONS} == want, text


def test_component_cap_trips_as_its_instances_join(monkeypatch):
    """Every instance of forall x . (~(#0 eq #0) | ~(x eq x)) reads
    ~(#0 eq #0), so the 256 instances at rank 3 form one component; with
    three choices at ~(#0 eq #0) and at each ~(x eq x), nine instances
    pass the cap (3 ** 10 > 50000), and no more are probed."""
    import pst.valuation as valuation_mod

    probed = 0
    plain = valuation_mod._probe

    def counting(*args):
        nonlocal probed
        probed += 1
        return plain(*args)

    monkeypatch.setattr(valuation_mod, "_probe", counting)
    model = make_model(saturate(chain(3), "comega"), NameStore(), 3)
    with pytest.raises(CapExceeded) as exc:
        check_valid(parse_formula("forall x . (~(#0 eq #0) | ~(x eq x))"), model)
    assert (exc.value.cap, exc.value.limit) == ("ASSIGNMENT_CAP", ASSIGNMENT_CAP)
    assert exc.value.predicted == 3**10 and probed == 9


def test_each_instance_of_a_component_is_probed_once(monkeypatch):
    """A linked comega grid sweeps each representative with its mirror, and
    under bounded_opt the scalar instances join into one component; every
    instance handed to a group sweep is probed once, by one ``_Probe``
    evaluation at its node, trail and path.  Separation joins its
    instances too, with no probe of forall x . phi besides: by ~~(x in x)
    on the 3-chain, each instance probed once; by ~~(x eq x) on the
    4-chain, one group per name."""
    import pst.decompose as decompose_mod
    import pst.valuation as valuation_mod

    probes = collections.Counter()
    groups = []
    plain_eval = valuation_mod._eval
    plain_group = valuation_mod._Group.__init__

    def counting(node, env, trail, path, model, asg, ctx):
        if asg.__class__ is valuation_mod._Probe:
            probes[id(node), trail, path] += 1
        return plain_eval(node, env, trail, path, model, asg, ctx)

    def recording(self, instances, *args):
        groups.append(instances)
        plain_group(self, instances, *args)

    monkeypatch.setattr(valuation_mod, "_eval", counting)
    monkeypatch.setattr(decompose_mod, "_eval", counting)
    monkeypatch.setattr(valuation_mod._Group, "__init__", recording)
    model = make_model(saturate(chain(3), "comega"), NameStore(), 2)
    for flagged, text in (
        (model, "forall x . forall y . (~~(x eq y) -> x eq y)"),
        (model.with_flags(bounded_opt=True), "forall x . forall y . (~~(x eq y) | (exists z . (z in y & ~(z eq x))))"),
    ):
        probes.clear()
        groups.clear()
        check_valid(parse_formula(text), flagged)
        assert max(map(len, groups)) > 1, text
        assert {probes[id(inst[0]), inst[2], inst[3]] for group in groups for inst in group} == {1}, text
    probes.clear()
    groups.clear()
    check_separation(model, parse_formula("~~(x in x)"), "x")
    assert sum(map(len, groups)) == len(model.scope)
    assert {probes[id(inst[0]), inst[2], inst[3]] for group in groups for inst in group} == {1}
    groups.clear()
    chain4 = make_model(saturate(chain(4), "comega"), NameStore(), 2)
    report = check_separation(chain4, parse_formula("~~(x eq x)"), "x")
    assert len(groups) == 5 and report.n_assignments == 16807


def test_grid_keys_keep_their_order_across_a_constant():
    """Every P(u, v) is top, so the positions of forall x . (~P(x, #1) |
    ~P(#1, x)) read equal values on both sides of #1, but their two keys
    sort the other way round past #1: (0, 1) < (1, 0) and (1, 2) < (2, 1).
    The witness chooses top at the less significant key of each position,
    so a class spanning #1 would misplace it."""
    store = NameStore()
    structure = saturate(chain(3), "comega")
    scope = enumerate_universe(store, structure.algebra, 2)
    model = make_model(structure, store, 2, prop_values={("P", (u, v)): 2 for u in scope for v in scope})
    phi = parse_formula("forall x . (~P(x, #1) | ~P(#1, x))")
    want = enumerated_verdicts(phi, model)
    assert {quant: check_valid(phi, model, quant) for quant in QUANTIFICATIONS} == want
    assert dict(want["all_assignments"].witness.atoms)[("pred", "P", (1, 2))] == 0


@pytest.mark.parametrize("mode", ["comega", "n4"])
@pytest.mark.parametrize(
    "text",
    ["forall x . forall y . ~P(x, y, #1)", "exists x . exists y . (P(y, x, #2) & ~P(x, y, #2))"],
)
def test_grid_scalar_rows_match_the_enumerator(mode, text):
    """A two-row grid over a ternary predicate with a constant, which
    reaches the scalar rows of ``decompose._Grid.clean``."""
    store = NameStore()
    structure = saturate(chain(3), mode)
    scope = enumerate_universe(store, structure.algebra, 2)
    table = {("P", (u, v, w)): (u + 2 * v + w) % 3 for u in scope for v in scope for w in scope}
    model = make_model(structure, store, 2, prop_values=table)
    phi = parse_formula(text, Signature(predicates={"P": 3}))
    want = enumerated_verdicts(phi, model, 3000)
    assert {quant: check_valid(phi, model, quant, cap=3000) for quant in QUANTIFICATIONS} == want


def test_de_morgan_on_the_400_assignment_structure_matches_the_enumerator():
    """The comega De Morgan sentence over the saturated structure of the
    5-element algebra whose rank-2 instances have 400 assignments in all,
    which the sweep once listed one by one."""
    algebra = [a for a in enumerate_heyting(5) if a.size == 5][1]
    model = make_model(saturate(algebra, "comega"), NameStore(), 2)
    phi = _WITNESS_SENTENCES[5]
    want = enumerated_verdicts(phi, model)
    assert want["all_assignments"].n_assignments == 400
    assert {quant: check_valid(phi, model, quant) for quant in QUANTIFICATIONS} == want


def test_reach_witnesses_re_verify():
    """The witnesses of the 3-chain reach checks at rank 3 name every
    negated atom, 256 and 32896 of them, and evaluate to top under the
    assignment they are; each choice is found by its key.  The --quant some
    witness of the contradiction chooses bottom, the first option, at every
    ~(x eq x) but the last, the latest key, which takes top."""
    model = make_model(saturate(chain(3), "comega"), NameStore(), 3)
    contra = parse_formula("exists x . (x eq x & ~(x eq x))")
    witness = check_valid(contra, model, "some_assignment").witness
    assert [key for key, _ in witness.atoms] == [("eq", u, u) for u in model.scope]
    assert [c for _, c in witness.atoms] == [0] * 255 + [2]
    assert eval_sentence(contra, model, witness) == 2
    lem = parse_formula("forall x . forall y . (x eq y | ~(x eq y))")
    witness = check_valid(lem, model).witness
    assert len(witness.atoms) == 256 * 257 // 2 and not witness.occs
    assert eval_sentence(lem, model, witness) == 2


@pytest.mark.parametrize("kind", ["comega", "n4"])
def test_join_prefix_witness_over_b4_at_rank_three(kind):
    """The --quant some witness of the contradiction over the 3125 rank-3
    names of B4, whose top is join-reducible (a join of two non-top values
    is top): it names every ~(x eq x), chooses 0 at each but the last, the
    latest key, which takes top, and evaluates to top under the assignment
    it is."""
    from pst.algebra import boolean_algebra

    model = make_model(saturate(boolean_algebra(2), kind), NameStore(), 3)
    contra = parse_formula("exists x . (x eq x & ~(x eq x))")
    witness = check_valid(contra, model, "some_assignment").witness
    assert [key for key, _ in witness.atoms] == [("eq", u, u) for u in model.scope]
    assert [c for _, c in witness.atoms] == [0] * 3124 + [3] and not witness.occs
    assert witness.fingerprint() == "0db2bbb68bb3"
    assert eval_sentence(contra, model, witness) == 3


# negated compounds: comega chooses per occurrence, with options read from the
# body's value; n4 pushes them to the atoms
_COMPOUND_SENTENCES = [
    parse_formula(text)
    for text in (
        "~~~(#0 eq #0)",
        "forall x . ~~(x in x)",
        "forall x . (~(x eq x & #0 in x) | #0 in x)",
        "exists x . ~(x eq #0 -> #0 in x)",
        "forall x . exists y . ~~(x in y)",
        "exists x . forall y . (~(y in x & x eq x) -> ~~(y eq y))",
        "forall x . (~(x eq x & x eq x) <-> ~~(x eq x))",
        "~(#0 eq #0 -> ~(#0 in #0)) <-> ~(#0 eq #0) & #0 in #0",
    )
]


def test_compound_negations_match_the_replaced_enumerator():
    """The assignment list and check_valid under both quantifications
    against the enumerator the evaluator replaced (tests/reference.py), for
    every saturated comega and n4 structure of size <= 5 at ranks 1 and 2.
    Past the cap both sides must trip it alike."""
    cap = 1100
    for model in _saturated_models():
        for phi in _COMPOUND_SENTENCES:
            _same_outcome(
                lambda: reference_assignments(phi, model, EvalContext(model), cap),
                lambda: enumerate_assignments(phi, model, cap=cap),
            )
            _agrees_with_enumeration(phi, model, cap, raised=3000)


def test_the_oracle_meets_faults_in_evaluation_order():
    """A sentence with two faults: the name #9 is in no store at rank 1, and
    n4 defines no negation over a quantifier.  Evaluation reads the atom
    on the left first, and so does the oracle's walk for negated atoms."""
    model = make_model(saturate(chain(3), "n4"), NameStore(), 1)
    phi = parse_formula("#9 in #0 & ~(forall x . x eq x)")
    with pytest.raises(UnknownChild):
        check_valid(phi, model)
    _agrees_with_enumeration(phi, model)


def test_bounded_quantifiers_choose_only_the_atoms_they_read():
    """Under bounded_opt a bounded quantifier ranges over its bound's
    entries, so the assignments cover the atoms and occurrences of those
    instances only, not of the whole scope."""
    for kind, size, text, bounded, unbounded in (
        ("n4", 3, "forall x . forall y . (y in x -> ~(y eq y))", 3, 81),
        ("comega", 2, "forall x . forall y . (y in x -> ~~(y eq y))", 5, 729),
    ):
        plain = make_model(saturate(chain(size), kind), NameStore(), 2)
        model = plain.with_flags(bounded_opt=True)
        phi = parse_formula(text)
        assert check_valid(phi, plain).n_assignments == unbounded
        verdict = check_valid(phi, model)
        assert verdict.n_assignments == len(enumerate_assignments(phi, model)) == bounded
        entries = {(x, c) for x in model.scope for c, _ in model.store.get(x).entries}
        for asg in (verdict.witness, verdict.falsifier):
            assert {key for key, _ in asg.atoms} == {("eq", c, c) for _, c in entries}
            assert {trail for (_, _, trail), _ in asg.occs} <= entries
            assert len(asg.occs) == (len(entries) if kind == "comega" else 0)
            eval_sentence(phi, model, asg)  # every choice it names is read

def _choice_formulas(leaves):
    atoms = st.builds(Eq, leaves, leaves) | st.builds(Mem, leaves, leaves) | st.just(Bot())

    def grow(sub):
        var = st.sampled_from(["x", "y"])
        return (
            st.builds(And, sub, sub)
            | st.builds(Or, sub, sub)
            | st.builds(Imp, sub, sub)
            | st.builds(iff, sub, sub)
            | st.builds(Neg, sub)
            | st.builds(Forall, var, sub)
            | st.builds(Exists, var, sub)
        )

    return st.recursive(atoms, grow, max_leaves=4)


def _existential_closure(phi):
    for v in sorted(free_vars(phi), reverse=True):
        phi = Exists(v, phi)
    return phi


@pytest.mark.parametrize("kind", ["comega", "n4"])
def test_assignment_index_matches_enumeration_on_generated_formulas(kind):
    """Generated formulas under a meet and under a join prefix: their
    instances share keys wherever two atoms name the same names."""
    models = [m for m in _saturated_models() if m.structure.kind == kind]
    leaves = st.sampled_from(["x", "y"]).map(Var) | st.sampled_from([0, 1]).map(NameConst)
    closures = st.sampled_from([universal_closure, _existential_closure])

    @given(st.builds(lambda close, phi: close(phi), closures, _choice_formulas(leaves)), st.sampled_from(models))
    @settings(max_examples=120, deadline=None, derandomize=True)
    def check(phi, model):
        _agrees_with_enumeration(phi, model)

    check()


def test_leibniz_and_induction_match_enumeration():
    """check_leibniz against the pair loop it replaced: ground and
    quantified members with negation, choice-free members and one mixed
    family, under both quantifications and three caps; induction at one."""
    family = [
        ("x", parse_formula(text))
        for text in ("~(x eq x)", "~~(x in x)", "~(x in #0) | x eq x")
    ]
    wider = family + [
        ("x", parse_formula(text))
        for text in ("x in #1", "exists y . (y in x)", "~(x in #1)", "exists y . (y in x & ~(y in x))", "~~(x eq x)")
    ]
    mixed = [("x", parse_formula("x in #1")), ("y", parse_formula("~(y in #0) | y eq y")), ("x", parse_formula("exists y . (y in x)"))]
    families = [[member] for member in wider] + [mixed]

    def leibniz(model, family, quant, cap):
        verdict = check_leibniz(model, family, model.rank_bound, quant, cap=cap)
        assert verdict.valid == (not verdict.detail)
        return verdict.value_lo, verdict.detail

    def induction(model, phi, var, quant):
        report = check_induction(model, phi, var, quant, cap=300)
        return report.value, report.valid, report.n_assignments

    for model in _saturated_models():
        for quant in QUANTIFICATIONS:
            for cap in (3, 40, 300):
                for members in families:
                    _same_outcome(
                        lambda: enumerated_leibniz(model, members, model.rank_bound, quant, cap),
                        lambda: leibniz(model, members, quant, cap),
                    )
            # the oracle evaluates the induction schema per assignment: 1.6 s at cap 1100
            for var, phi in family:
                _same_outcome(
                    lambda: enumerated_induction(model, phi, var, quant, 300),
                    lambda: induction(model, phi, var, quant),
                )


def test_leibniz_probes_each_instance_once(n43_model, monkeypatch):
    """A member with choices is read pair by pair, from its instances at u
    and v, but each name's instance is probed once: one probe per name and
    member with choices, none for a choice-free member."""
    import pst.valuation as val_mod

    probed = []
    probe = val_mod._probe

    def counting(inst, *args):
        probed.append((id(inst[0]), tuple(inst[1].items())))
        return probe(inst, *args)

    monkeypatch.setattr(val_mod, "_probe", counting)
    family = [("x", parse_formula(text)) for text in ("~(x in x)", "x in #1", "exists y . (y in x & ~(y in x))")]
    check_leibniz(n43_model, family, 2)
    assert len(probed) == len(set(probed)) == 2 * len(n43_model.scope)


def test_assignment_index_numbers_as_itertools_product(comega3_model):
    """Position i of the index decodes to the i-th enumerated assignment,
    and each negated atom reads its choice at every position."""
    store = comega3_model.store
    e = store.empty_name()
    ua = store.mk_name([(e, 1)])
    a, b = (Eq(NameConst(u), NameConst(u)) for u in (e, ua))  # top: N_top = {0, 1, 2}
    c = Mem(NameConst(e), NameConst(ua))  # 1: N_1 = {2}
    phi = And(Or(a, Neg(b)), Imp(Neg(a), And(Neg(b), Neg(c))))  # ~a -> ~b: not symmetric
    ctx = EvalContext(comega3_model)
    sweep = sweep_assignments(phi, comega3_model, ctx)
    assignments = enumerate_assignments(phi, comega3_model)
    assert sweep.size == len(assignments) == 3 * 3
    for i, asg in enumerate(assignments):
        assert sweep.decode(i) == asg
        assert ctx.planes.decode(sweep.value, i) == eval_sentence(phi, comega3_model, asg)


def test_iff_sides_are_evaluated_once(monkeypatch):
    """A 50-term <-> chain, which syntax.iff builds with both sides shared:
    every walk visits each shared side once, so the work is polynomial in
    the terms (visiting both positions doubled it per term), and a walk
    that doubles fails at the call limit instead of running for ever."""
    import pst.syntax as syntax_mod
    import pst.valuation as val_mod

    calls = 0

    def count():
        nonlocal calls
        calls += 1
        assert calls < 20_000, "the walk doubles per <->"

    for mod, name in (
        (val_mod, "_eval"),
        (syntax_mod, "free_vars"),
        (syntax_mod, "is_negation_free"),
        (syntax_mod, "negates_atoms_only"),
        (syntax_mod, "nnf_n4"),
        (syntax_mod, "_subst_term"),
    ):
        plain = getattr(mod, name)

        def counting(*args, plain=plain):
            count()
            return plain(*args)

        monkeypatch.setattr(mod, name, counting)
    plain_vector = EvalContext.vector

    def counting_vector(self, *args):
        count()
        return plain_vector(self, *args)

    monkeypatch.setattr(EvalContext, "vector", counting_vector)

    def chain_of(term, n):
        out = term
        for _ in range(n - 1):
            out = iff(term, out)
        return Forall("x", out)

    for structure, term, lo in (
        (chain(3), Eq(x, x), 2),
        (saturate(chain(3), "n4"), Neg(Eq(x, x)), 2),  # an even chain of one choice
        (saturate(chain(3), "comega"), Or(Eq(x, x), Neg(Eq(x, x))), 2),
    ):
        model = make_model(structure, NameStore(), 2)
        calls = 0
        assert sweep_assignments(chain_of(term, 50), model, EvalContext(model)).lo == lo
    # the syntactic walkers: nnf_n4 and substitute rebuild a <-> with iff, so
    # its sides stay shared; free_for (through free_vars at its atoms) and
    # subformulas visit each side once
    body = chain_of(Neg(Eq(x, x)), 50).body
    for walk in (
        lambda: iff_sides(nnf_n4(body)),
        lambda: nnf_n4(Neg(body)),
        lambda: iff_sides(substitute(body, "x", NameConst(0))),
        lambda: free_for(y, "x", body),
        lambda: [count() for _ in subformulas(body)],
    ):
        calls = 0
        assert walk()
    monkeypatch.undo()
    # a comega negated compound keeps one choice per position: t <-> t has
    # four occurrences of t, two of which a shared side would never read
    model = make_model(saturate(chain(3), "comega"), NameStore(), 1)
    phi = chain_of(Neg(And(Eq(x, x), Eq(x, x))), 2)
    assert check_valid(phi, model).n_assignments == 3 ** 4
    _agrees_with_enumeration(phi, model)
    assert enumerated_verdicts(phi, model) == enumerated_verdicts(unshared(phi), model)


@pytest.mark.parametrize("mode", ["heyting", "comega", "n4"])
def test_short_iff_chains_match_the_unshared_reference(mode):
    """Chains of up to 8 terms give the RESULT line of the same chain built
    without sharing, evaluated by the reference or assignment by
    assignment."""
    structure = chain(3) if mode == "heyting" else saturate(chain(3), mode)
    model = make_model(structure, NameStore(), 2, mode=mode)
    for text in ("x eq x", "~(x eq #1)", "x in #1 | ~(x in #1)"):
        for n in range(1, 9):
            phi = parse_formula("forall x . (" + " <-> ".join([f"({text})"] * n) + ")")
            copy = unshared(phi)
            want = enumerated_verdicts(copy, model)["all_assignments"]
            if mode == "heyting":
                assert want.value_lo == Reference(model).eval(copy)
            assert check_valid(phi, model).result_line() == want.result_line(), (text, n)


# --- bounded quantifier optimisation ---------------------------------------------------


def _bq_family(model):
    w = model.scope[-1]
    return [
        Eq(x, x),
        Mem(x, NameConst(w)),
        Exists("t", Mem(Var("t"), x)),
        Forall("t", Imp(Mem(Var("t"), x), Mem(Var("t"), NameConst(w)))),
        And(Eq(x, x), Mem(x, NameConst(w))),
    ]


def test_bounded_quantifier_lemma_all_modes(bool_model, heyting3_model, comega3_model, n43_model):
    for model in (bool_model, heyting3_model, comega3_model, n43_model):
        opt = model.with_flags(bounded_opt=True)
        ctx_a, ctx_b = EvalContext(model), EvalContext(opt)
        for u in model.scope:
            for body in _bq_family(model):
                for shape in (
                    Forall("x", Imp(Mem(x, NameConst(u)), body)),
                    Exists("x", And(Mem(x, NameConst(u)), body)),
                ):
                    v_plain = eval_sentence(shape, model, EMPTY_ASSIGNMENT, ctx_a)
                    v_opt = eval_sentence(shape, opt, EMPTY_ASSIGNMENT, ctx_b)
                    assert v_plain == v_opt, (model.mode, u, shape)


def test_rank_monotonicity(chain2):
    store = NameStore()
    m2 = make_model(chain2, store, 2)
    m3 = make_model(chain2, store, 3)
    alg = chain2
    w = m2.scope[2]
    for body in (Mem(x, NameConst(w)), Eq(x, NameConst(w))):
        assert alg.le(
            eval_sentence(Exists("x", body), m2), eval_sentence(Exists("x", body), m3)
        )
        assert alg.le(
            eval_sentence(Forall("x", body), m3), eval_sentence(Forall("x", body), m2)
        )


# --- leibniz -----------------------------------------------------------------------------


def test_leibniz_positive_formulas_hold(bool_model, heyting3_model, comega3_model, n43_model):
    for model in (bool_model, heyting3_model, comega3_model, n43_model):
        w = model.scope[-1]
        fam = [("x", Mem(x, NameConst(w))), ("x", Eq(x, x))]
        verdict = check_leibniz(model, fam, 2)
        assert verdict.valid, (model.mode, verdict.detail)


def test_leibniz_trivial_reflexive(bool_model):
    verdict = check_leibniz(bool_model, [("x", Eq(x, x))], 2)
    assert verdict.valid


def test_leibniz_negated_formula_reported_not_assumed(n43_model):
    w = n43_model.scope[-1]
    fam = [("x", Neg(Mem(x, NameConst(w))))]
    all_v = check_leibniz(n43_model, fam, 2, "all_assignments")
    some_v = check_leibniz(n43_model, fam, 2, "some_assignment")
    # oracle-computed: free choices violate the inequality for some
    # assignment, while compatible choices exist for every pair
    assert not all_v.valid
    assert all_v.detail  # the violating (u, v, phi, assignment) is reported
    assert some_v.valid


def test_leibniz_requires_one_free_variable(bool_model):
    with pytest.raises(EvalError):
        check_leibniz(bool_model, [("x", Eq(x, y))], 2)


# --- predicate tables over a finite domain ----------------------------------------------


def _simple_theta():
    """P over the domain {0, 1} and a 0-ary q on the 3-chain, with a chosen
    value for every negated cell: the scope is the domain, each cell a
    table atom."""
    fs = saturate(chain(3), "n4")
    model = make_model(fs, NameStore(), 0, scope=(0, 1), prop_values={("P", (0,)): 2, ("P", (1,)): 1, "q": 2})
    asg = Assignment(atoms=((("pred", "P", (0,)), 0), (("pred", "P", (1,)), 2), (("pred", "q"), 0)))
    return model, asg


def P(t):
    return Pred("P", (t,))


def test_predicate_tables_and_quantifiers():
    model, asg = _simple_theta()
    one, zero = NameConst(1), NameConst(0)
    assert eval_sentence(Pred("q", ()), model, asg) == 2
    assert eval_sentence(P(one), model, asg) == 1
    assert eval_sentence(Forall("x", P(x)), model, asg) == 1  # meet of 2 and 1
    assert eval_sentence(Exists("x", P(x)), model, asg) == 2
    assert eval_sentence(Neg(P(zero)), model, asg) == 0
    assert eval_sentence(Neg(Neg(P(zero))), model, asg) == 2


def test_predicate_tables_de_morgan_definitions():
    model, asg = _simple_theta()
    alg = model.algebra
    a, b = P(NameConst(0)), Pred("q", ())
    na, nb = eval_sentence(Neg(a), model, asg), eval_sentence(Neg(b), model, asg)
    assert eval_sentence(Neg(And(a, b)), model, asg) == alg.join_(na, nb)
    assert eval_sentence(Neg(Or(a, b)), model, asg) == alg.meet_(na, nb)
    assert eval_sentence(Neg(Imp(a, b)), model, asg) == alg.meet_(eval_sentence(a, model, asg), nb)


def test_theta_invariant_enforced():
    fs = saturate(chain(3), "n4")
    model = make_model(fs, NameStore(), 0, scope=(0,), prop_values={"q": 1})
    with pytest.raises(InvalidAssignment):  # 1 not in N_1
        eval_sentence(Neg(Pred("q", ())), model, Assignment(atoms=((("pred", "q"), 1),)))


def test_theta_true_quantifies_valuations():
    """True in the structure: the universal closure takes the top value."""
    model, asg = _simple_theta()
    top = model.algebra.top
    assert eval_sentence(universal_closure(Imp(P(x), P(x))), model, asg) == top
    assert eval_sentence(universal_closure(P(x)), model, asg) != top


# --- subalgebra absoluteness -----------------------------------------------------------


def test_absoluteness_two_in_four(chain2, bool4):
    sub_store, sup_store = NameStore(), NameStore()
    m_sub = make_model(chain2, sub_store, 2)
    m_sup = make_model(bool4, sup_store, 2)
    e = sub_store.empty_name()
    u = sub_store.mk_name([(e, 1)])
    cases = [
        Forall("t", Imp(Mem(Var("t"), NameConst(u)), Mem(Var("t"), NameConst(u)))),
        Eq(NameConst(u), NameConst(e)),
        Mem(NameConst(e), NameConst(u)),
        Exists("t", And(Mem(Var("t"), NameConst(u)), Eq(Var("t"), NameConst(e)))),
    ]
    for phi in cases:
        verdict = check_subalgebra_absolute(phi, m_sub, m_sup)
        assert verdict.valid, (phi, verdict.detail)


def _absoluteness_cases(store, weight):
    e = store.empty_name()
    u = store.mk_name([(e, weight)])
    return [
        Forall("t", Imp(Mem(Var("t"), NameConst(u)), Mem(Var("t"), NameConst(u)))),
        Eq(NameConst(u), NameConst(e)),
        Mem(NameConst(e), NameConst(u)),
        Exists("t", And(Mem(Var("t"), NameConst(u)), Eq(Var("t"), NameConst(e)))),
    ]


def test_absoluteness_matches_both_sides_evaluated():
    """The ambient value is the embedding's image of the sub value: the
    same verdicts as transporting the names and evaluating both sides, for
    the 2-chain in the 3-chain and in B4 and the 3-chain in the 4-chain,
    at u = {empty: a} for every element a of the subalgebra."""
    for sub, sup in ((chain(2), chain(3)), (chain(2), boolean_algebra(2)), (chain(3), chain(4))):
        m_sub = make_model(sub, NameStore(), 2)
        m_sup = make_model(sup, NameStore(), 2)
        embedding = find_algebra_embedding(sub, sup)
        for weight in range(sub.size):
            for phi in _absoluteness_cases(m_sub.store, weight):
                want = absoluteness(phi, m_sub, m_sup, embedding)
                assert want.valid
                assert check_subalgebra_absolute(phi, m_sub, m_sup) == want
                assert check_subalgebra_absolute(phi, m_sub, m_sup, embedding) == want


def test_absoluteness_rejects_a_map_that_is_no_embedding(chain2, bool4):
    """A given map must preserve meet, join, imp, 0 and 1."""
    m_sub = make_model(chain2, NameStore(), 1)
    m_sup = make_model(bool4, NameStore(), 1)
    e = m_sub.store.empty_name()
    phi = Eq(NameConst(e), NameConst(e))
    assert find_algebra_embedding(chain2, bool4) == (0, 3)
    for embedding in ((0, 1), (3, 0), (0, 0), (0, 3, 3), (0, 4)):
        with pytest.raises(EvalError, match="embedding does not preserve"):
            check_subalgebra_absolute(phi, m_sub, m_sup, embedding)


def test_absoluteness_guards(chain2, bool4):
    m_sub = make_model(chain2, NameStore(), 1)
    m_sup = make_model(bool4, NameStore(), 1)
    e = m_sub.store.empty_name()
    with pytest.raises(NotRestricted):
        check_subalgebra_absolute(Forall("t", Mem(Var("t"), NameConst(e))), m_sub, m_sup)
    with pytest.raises(NotNegationFree):
        check_subalgebra_absolute(Neg(Eq(NameConst(e), NameConst(e))), m_sub, m_sup)
    with pytest.raises(EvalError, match="without predicate atoms"):
        check_subalgebra_absolute(Pred("P", (NameConst(e),)), m_sub, m_sup)


# --- hat lemma and maximum principle ------------------------------------------------------


def test_hat_lemma_two_element_and_three_chain(bool_model, heyting3_model):
    for model in (bool_model, heyting3_model):
        verdict = check_hat_lemma(model)
        assert verdict.valid, verdict.detail


def test_hat_lemma_matches_evaluation():
    """check_hat_lemma decides every law by the values {bottom, top} of hat
    names: the same verdicts as evaluating the laws at every hat name and
    every name of rank <= 2, over the chains of 1-4 elements and B4 (the
    one-element algebra, where every instance that does not hold fails,
    included, its first five failures the same lines)."""
    for alg in (chain(1), chain(2), chain(3), chain(4), boolean_algebra(2)):
        for hf_rank in (2, 3):
            got = check_hat_lemma(make_model(alg, NameStore(), 2), max_hf_rank=hf_rank)
            want = hat_lemma(make_model(alg, NameStore(), 2), max_hf_rank=hf_rank)
            assert got == want, (alg.size, hf_rank)
            assert got.valid == (alg.size > 1)
            assert len(got.detail) == (0 if alg.size > 1 else 5)


def test_hat_lemma_rejects_fstructure_modes(comega3_model):
    with pytest.raises(EvalError):
        check_hat_lemma(comega3_model)


def test_maximum_principle_witness(bool_model):
    e = bool_model.store.empty_name()
    verdict = check_maximum_principle(bool_model, Mem(NameConst(e), x), "x")
    assert verdict.valid
    # frozen: the witness is the name {(empty, top)}
    assert verdict.detail == (f"witness=#{bool_model.scope[2]}",)


def test_maximum_principle_trivial_self_witness(bool_model):
    u = bool_model.scope[1]
    verdict = check_maximum_principle(bool_model, Eq(x, NameConst(u)), "x")
    assert verdict.valid


def test_maximum_principle_unmet_hypothesis_and_exhausted_scope():
    """Over B4, phi = #e in x takes 1 at {e: 1} and 2 at {e: 2}: their join
    is top, which no single name reaches."""
    store = NameStore()
    e = store.empty_name()
    a = store.mk_name([(e, 1)])
    b = store.mk_name([(e, 2)])
    phi = Mem(NameConst(e), x)
    unmet = check_maximum_principle(make_model(boolean_algebra(2), store, 1, scope=[e, a]), phi, "x")
    assert (unmet.valid, unmet.value_lo, unmet.value_hi) == (True, 1, 1)
    assert unmet.notes == ("rank-relative", "existence hypothesis fails at this scope")
    exhausted = check_maximum_principle(make_model(boolean_algebra(2), store, 1, scope=[e, a, b]), phi, "x")
    assert (exhausted.valid, exhausted.value_lo, exhausted.value_hi) == (False, 3, 3)
    assert exhausted.notes == ("rank-relative", "scope exhausted without a pointwise witness")


def test_maximum_principle_guards(bool_model):
    with pytest.raises(NotNegationFree):
        check_maximum_principle(bool_model, Neg(Eq(x, x)), "x")
