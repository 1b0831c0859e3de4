import contextlib
import functools
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pst import axioms as axioms_mod
from pst import search as search_mod
from pst import valuation as valuation_mod
from pst.algebra import boolean_algebra, chain, enumerate_heyting
from pst.axioms import (
    CHECKS,
    check_collection,
    check_comprehension_refuted,
    check_emptyset,
    check_extensionality,
    check_induction,
    check_infinity_reflection,
    check_pairing,
    check_powerset,
    check_separation,
    check_union,
)
from pst.cli import main
from pst.errors import CapExceeded, PstError
from pst.fidel import format_fstructure_text, saturate
from pst.names import NameStore
from pst.syntax import And, Eq, Forall, Imp, Mem, NameConst, Neg, Or, Var, free_vars, iff, parse_formula
from pst.valuation import ASSIGNMENT_CAP, QUANTIFICATIONS, EvalContext, EvalError, eval_sentence, make_model
from reference import (
    enumerated_collection,
    enumerated_comprehension,
    enumerated_induction,
    enumerated_separation,
    pointwise_emptyset,
    pointwise_extensionality,
    pointwise_pairing,
    pointwise_powerset,
    pointwise_union,
    reflection,
    separation,
)

x, y, z = Var("x"), Var("y"), Var("z")


def test_pairing_empty_pair(bool_model):
    e = bool_model.store.empty_name()
    report = check_pairing(bool_model, e, e)
    assert report.valid and report.value == bool_model.algebra.top
    assert report.witnesses[0][0] == "w"


def test_pairing_all_pairs_three_chain(heyting3_model):
    report = check_pairing(heyting3_model)
    assert report.valid


def test_pairing_self_consistency(bool_model):
    """Re-run the plain sentence with the constructed witness substituted."""
    store = bool_model.store
    alg = bool_model.algebra
    u, v = bool_model.scope[1], bool_model.scope[2]
    report = check_pairing(bool_model, u, v)
    w = dict(report.witnesses)["w"]
    sentence = Forall(
        "z",
        iff(
            Mem(z, NameConst(w)),
            Or(Eq(z, NameConst(u)), Eq(z, NameConst(v))),
        ),
    )
    assert (eval_sentence(sentence, bool_model) == alg.top) == report.valid


def test_union_empty_and_nested(bool_model):
    e = bool_model.store.empty_name()
    report = check_union(bool_model, e)
    assert report.valid
    w = dict(report.witnesses)["w"]
    assert bool_model.store.get(w).entries == ()  # union of the empty name


def test_union_nested_three_chain_values():
    alg = chain(3)
    store = NameStore()
    model = make_model(saturate(alg, "comega"), store, 2)
    ctx = EvalContext(model)
    e = store.empty_name()
    v0 = store.mk_name([(e, 1)])
    u = store.mk_name([(v0, 1)])  # nested with values a
    report = check_union(model, u, ctx)
    assert report.valid
    w = dict(report.witnesses)["w"]
    # both sides evaluate to a for the empty name
    assert ctx.eval_mem(e, w) == 1


def test_union_weights_propagate():
    """The union name must meet the outer membership degree into each entry;
    a child reachable only through a weight-a edge cannot enter with top."""
    alg = chain(3)
    store = NameStore()
    model = make_model(alg, store, 3, mode="heyting")
    ctx = EvalContext(model)
    e = store.empty_name()
    v_top = store.mk_name([(e, 2)])
    u = store.mk_name([(v_top, 1)])  # u holds v_top only to degree a
    report = check_union(model, u, ctx)
    assert report.valid
    w = dict(report.witnesses)["w"]
    assert store.get(w).entries == ((e, 1),)


def test_separation_trivial_and_membership(bool_model):
    rep = check_separation(bool_model, Eq(z, z), "z")
    assert rep.valid
    w_id = bool_model.scope[2]
    rep = check_separation(bool_model, Mem(z, NameConst(w_id)), "z")
    assert rep.valid


def test_separation_negated_reported_per_assignment(n43_model):
    e = n43_model.store.empty_name()
    phi = Neg(Eq(z, NameConst(e)))
    rep_all = check_separation(n43_model, phi, "z", quantification="all_assignments")
    rep_some = check_separation(n43_model, phi, "z", quantification="some_assignment")
    # oracle-computed on the saturated 3-chain: some assignments break the
    # biconditional, at least one satisfies it
    assert not rep_all.valid
    assert rep_some.valid
    assert rep_all.n_assignments == rep_some.n_assignments == 9


def test_powerset_cases(bool_model, heyting3_model):
    e = bool_model.store.empty_name()
    rep = check_powerset(bool_model, e)
    assert rep.valid
    rep = check_powerset(bool_model)
    assert rep.valid
    rep3 = check_powerset(heyting3_model)
    assert rep3.valid and not rep3.notes[:-1]


def test_powerset_cap():
    alg = chain(3)
    store = NameStore()
    model = make_model(alg, store, 2, mode="heyting")
    with pytest.raises(CapExceeded):
        check_powerset(model, cap=1)


def test_extensionality(bool_model, heyting3_model, n43_model):
    for model in (bool_model, heyting3_model, n43_model):
        rep = check_extensionality(model)
        assert rep.valid


def test_emptyset_per_choice(comega3_model):
    rep = check_emptyset(comega3_model)
    assert rep.valid
    # N_top on the saturated 3-chain has three members, one witness per
    # choice per scope name
    assert rep.n_assignments == 3 * len(comega3_model.scope)


def test_emptyset_boolean_single_choice(bool_model):
    rep = check_emptyset(bool_model)
    assert rep.valid
    assert rep.n_assignments == len(bool_model.scope)


def test_collection_cases(bool_model):
    rep = check_collection(bool_model, Eq(y, x), "x", "y")
    assert rep.valid
    rep = check_collection(bool_model, Mem(x, y), "x", "y")
    assert rep.valid
    e = bool_model.store.empty_name()
    rep = check_collection(bool_model, Eq(y, x), "x", "y", u=e)
    assert rep.valid


def test_induction_cases(bool_model, heyting3_model):
    rep = check_induction(bool_model, Eq(x, x), "x")
    assert rep.valid and rep.value == bool_model.algebra.top
    w = bool_model.scope[2]
    rep = check_induction(bool_model, Mem(x, NameConst(w)), "x")
    assert rep.valid
    for body in (Eq(x, x), Imp(Mem(x, NameConst(heyting3_model.scope[-1])), Eq(x, x))):
        rep = check_induction(heyting3_model, body, "x")
        assert rep.valid


def test_comprehension_refuted_small_models(bool_model, heyting3_model, comega3_model):
    for model in (bool_model, heyting3_model, comega3_model):
        rep = check_comprehension_refuted(model)
        assert rep.valid
        assert rep.value == model.algebra.bottom


def test_comprehension_rank1():
    model = make_model(chain(2), NameStore(), 1)
    rep = check_comprehension_refuted(model)
    assert rep.valid and rep.value == 0


def test_comprehension_degenerate_algebra():
    model = make_model(chain(1), NameStore(), 1, mode="heyting")
    rep = check_comprehension_refuted(model)
    assert rep.valid
    assert any("degenerate" in n for n in rep.notes)


def test_infinity_reflection(bool_model, heyting3_model):
    for model in (bool_model, heyting3_model):
        rep = check_infinity_reflection(model)
        assert rep.valid
        assert any("infinite witness" in n for n in rep.notes)


def test_infinity_reflection_matches_evaluation():
    """check_infinity_reflection decides every instance by the values
    {bottom, top} of hat names: the same reports as evaluating the templates
    at every pair of hat names, over every algebra of size <= 5 (the
    one-element algebra, where every instance that does not hold is a
    mismatch, included), at ranks 0-2 and max_hf_rank 1-3."""
    for alg in enumerate_heyting(5):
        for rank in (0, 1, 2):
            for hf_rank in (1, 2, 3):
                got = check_infinity_reflection(make_model(alg, NameStore(), rank), max_hf_rank=hf_rank)
                want = reflection(make_model(alg, NameStore(), rank), max_hf_rank=hf_rank)
                assert got == want, (alg.size, rank, hf_rank)
                assert got.valid == (alg.size > 1)


def test_checks_registry_complete():
    assert set(CHECKS) == {
        "pairing",
        "union",
        "separation",
        "powerset",
        "extensionality",
        "emptyset",
        "collection",
        "induction",
        "comprehension",
        "infinity",
    }


def test_formula_arity_guards(bool_model):
    with pytest.raises(EvalError):
        check_separation(bool_model, Eq(x, y), "x")
    with pytest.raises(EvalError):
        check_collection(bool_model, Eq(x, x), "x", "y")
    with pytest.raises(EvalError):
        check_induction(bool_model, Eq(x, y), "x")


# --- one enumeration per check, against one evaluation per assignment ----------------

_STRUCTURES_TO_5 = [saturate(alg, kind) for alg in enumerate_heyting(5) for kind in ("comega", "n4")]
_STRUCTURES_TO_5 += list(enumerate_heyting(5))
_GATE_CAP = 1500  # low enough that the per-assignment oracle stays quick; some inputs trip it


def _same_reports(program, oracle):
    """program(quantification) returns the oracle's report under each
    quantification, or trips the cap as it does, with the same message
    and fields."""
    try:
        want = oracle()
    except CapExceeded as exc:
        with pytest.raises(CapExceeded) as got:
            program("all_assignments")
        assert (str(got.value), got.value.cap, got.value.limit, got.value.predicted) == (
            str(exc),
            exc.cap,
            exc.limit,
            exc.predicted,
        )
        return "tripped"
    for quant, report in want.items():
        assert program(quant) == report, quant
    return want["all_assignments"].n_assignments


def _against_oracle(check, oracle, structure, rank, phi, *variables, u=None):
    """check against oracle, each on a model of its own."""

    def program(quant):
        model = make_model(structure, NameStore(), rank)
        return check(model, phi, *variables, u=u, quantification=quant, cap=_GATE_CAP)

    model = make_model(structure, NameStore(), rank)
    return _same_reports(program, lambda: oracle(model, phi, *variables, u=u, cap=_GATE_CAP))


def _separation(structure, rank, phi, u=None):
    return _against_oracle(check_separation, enumerated_separation, structure, rank, phi, "x", u=u)


def _collection(structure, rank, phi, u=None):
    return _against_oracle(check_collection, enumerated_collection, structure, rank, phi, "x", "y", u=u)


# atom-only negations, then comega compounds
_SEPARATION_FORMULAS = [
    "~(x eq x)",
    "~(x in x)",
    "x in #0 | ~(x eq #0)",
    "~(x in x & x eq x)",
    "~~(x eq x)",
    "~(x eq x & x eq x)",
    "~~(x in x)",
]
_COLLECTION_FORMULAS = ["~(x in y)", "~(x eq y) -> y in x", "~(x in y & y eq x)", "~~(x eq y)", "~(x eq x & y eq y)"]


@contextlib.contextmanager
def _sweep_size(size):
    """Runs of at most size positions; yields the prefixes of the runs
    that the comega groups sweep (a non-empty one fixes some digits)."""
    plain = valuation_mod._runs
    prefixes = []

    def runs(digits, span):
        for prefix in plain(digits, span):
            prefixes.append(prefix)
            yield prefix

    with mock.patch.object(valuation_mod, "_SWEEP_SIZE", size), mock.patch.object(valuation_mod, "_runs", runs):
        yield prefixes


@pytest.mark.parametrize("rank", [1, 2])
def test_separation_matches_the_per_assignment_loop(rank):
    """Every saturated structure and plain algebra of size <= 5: the whole
    report (value, validity, assignment count, witness id) under both
    quantifications, or the same cap trip; at the default sweep size and
    at one so small that the comega groups split into runs."""
    for size in (valuation_mod._SWEEP_SIZE, 2):
        outcomes = set()
        with _sweep_size(size) as prefixes:
            for structure, text in itertools.product(_STRUCTURES_TO_5, _SEPARATION_FORMULAS):
                outcomes.add(_separation(structure, rank, parse_formula(text)))
        assert len(outcomes) > 5
        if rank == 2:
            assert "tripped" in outcomes
        assert any(prefixes) == (size == 2)


@pytest.mark.parametrize("rank", [1, 2])
def test_collection_matches_the_per_assignment_loop(rank):
    for size in (valuation_mod._SWEEP_SIZE, 2):
        outcomes = set()
        with _sweep_size(size) as prefixes:
            for structure, text in itertools.product(_STRUCTURES_TO_5, _COLLECTION_FORMULAS):
                outcomes.add(_collection(structure, rank, parse_formula(text)))
        assert len(outcomes) > 3
        if rank == 2:
            assert "tripped" in outcomes
        assert any(prefixes) == (size == 2)


def test_separation_matches_at_rank_three():
    """The 3-chain at rank 3 (256 names): a forced occurrence per name,
    under both quantifications, and three choices per name, which trip the
    cap on the occurrence choices."""
    structure = saturate(chain(3), "comega")
    outcomes = [_separation(structure, 3, parse_formula(text)) for text in ("~~(x in x)", "~(x in x & x eq x)")]
    assert outcomes == [1, 1]
    assert _separation(structure, 3, parse_formula("~(x eq x & x eq x)")) == "tripped"


def test_one_target_matches():
    """A single target u, at every scope name of the saturated 3-chain."""
    for kind in ("comega", "n4"):
        structure = saturate(chain(3), kind)
        for u in make_model(structure, NameStore(), 2).scope:
            for text in ("~(x eq x)", "~~(x eq x)", "~(x eq x & x eq x)"):
                _separation(structure, 2, parse_formula(text), u=u)
            for text in ("~(x in y)", "~(x eq x & y eq y)"):
                _collection(structure, 2, parse_formula(text), u=u)


def _open_formulas(leaves):
    atoms = st.builds(Eq, leaves, leaves) | st.builds(Mem, leaves, leaves)

    def grow(sub):
        return st.builds(And, sub, sub) | st.builds(Or, sub, sub) | st.builds(Imp, sub, sub) | st.builds(Neg, sub)

    return st.recursive(atoms, grow, max_leaves=4)


# of size >= 2, at rank 2, so that every scope holds #0 and #1
_DRAW_STRUCTURES = [saturate(alg, kind) for alg in enumerate_heyting(4) if alg.size > 1 for kind in ("comega", "n4")]
_CONSTANTS = [NameConst(0), NameConst(1)]


@given(
    _open_formulas(st.sampled_from([x, x, *_CONSTANTS])).filter(lambda f: free_vars(f) == {"x"}),
    st.sampled_from(_DRAW_STRUCTURES),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_separation_matches_on_drawn_formulas(phi, structure):
    """Drawn formulas in x with the name constants #0 and #1."""
    _separation(structure, 2, phi)


@given(
    _open_formulas(st.sampled_from([x, y, *_CONSTANTS])).filter(lambda f: free_vars(f) == {"x", "y"}),
    st.sampled_from(_DRAW_STRUCTURES),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_collection_matches_on_drawn_formulas(phi, structure):
    _collection(structure, 2, phi)


def test_assignment_cap_trips_in_separation_and_collection(tmp_path, capsys):
    """ASSIGNMENT_CAP, from the command line and from the API: the atom
    choices of forall x . ~(x eq x) over the 3-chain at rank 3 (3^10 of
    them by the tenth name), with every target or one; and the occurrence
    choices of a negated compound, one per instance and three options
    each."""
    path = tmp_path / "sat3.fst"
    path.write_text(format_fstructure_text("sat3", saturate(chain(3), "comega")))
    argv = ["axiom", "check", "--axiom", "separation", "--model", str(path), "--rank", "3", "--formula", "~(x eq x)"]
    for extra in ([], ["--u", "3"]):
        assert main(argv + extra) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: more than {ASSIGNMENT_CAP} atom assignments\n"
    structure = saturate(chain(3), "comega")
    trips = [
        (lambda m: check_separation(m, parse_formula("~(x eq x)"), "x", u=3), 3, "atom assignments", 3**10),
        (lambda m: check_separation(m, parse_formula("~(x eq x & x eq x)"), "x"), 3, "occurrence choices", None),
        (lambda m: check_collection(m, parse_formula("~(x eq x & y eq y)"), "x", "y"), 2, "occurrence choices", None),
    ]
    for check, rank, what, predicted in trips:
        with pytest.raises(CapExceeded) as exc:
            check(make_model(structure, NameStore(), rank))
        assert str(exc.value) == f"more than {ASSIGNMENT_CAP} {what}"
        assert (exc.value.cap, exc.value.limit) == ("ASSIGNMENT_CAP", ASSIGNMENT_CAP)
        assert exc.value.predicted == (predicted or ASSIGNMENT_CAP + 1)


# --- comprehension and powerset decided by their identities -------------------------

_ORACLE_MODELS = [(alg, rank) for rank in (1, 2) for alg in enumerate_heyting(5)]
_ORACLE_MODELS += [(saturate(alg, kind), 2) for alg in enumerate_heyting(4) for kind in ("comega", "n4")]


@pytest.mark.parametrize(
    "check, oracle", [(check_comprehension_refuted, enumerated_comprehension), (check_powerset, pointwise_powerset)]
)
def test_comprehension_and_powerset_match_the_replaced_loops(check, oracle):
    """Every algebra of size <= 5 at ranks 1 and 2 and every saturated
    structure of size <= 4 at rank 2: the whole report, witness id
    included, each on a model of its own."""
    for structure, rank in _ORACLE_MODELS:
        assert check(make_model(structure, NameStore(), rank)) == oracle(make_model(structure, NameStore(), rank))


@pytest.mark.parametrize("alg", [chain(2), chain(3)], ids=["chain2", "chain3"])
def test_powerset_matches_the_pointwise_loop_at_rank_three(alg):
    """Over every target and at each target alone; the check makes only
    the first target's candidate functions and its witness."""
    for u in [None, *make_model(alg, NameStore(), 3).scope]:
        model = make_model(alg, NameStore(), 3)
        size = len(model.store)
        got = check_powerset(model, u)
        first = model.scope[0] if u is None else u
        assert len(model.store) - size <= alg.size ** len(model.store.get(first).entries) + 1, u
        assert got == pointwise_powerset(make_model(alg, NameStore(), 3), u), u


@pytest.mark.parametrize(
    "alg", [chain(2), chain(3), boolean_algebra(2), chain(4)], ids=["chain2", "chain3", "b4", "chain4"]
)
def test_comprehension_bound_is_bottom_at_rank_three(alg):
    """Where the rank-4 universe is out of reach, ||x in x|| is still
    bottom at every scope name, as the induction in the docstring says,
    and the check makes no name."""
    model = make_model(alg, NameStore(), 3)
    ctx = EvalContext(model)
    assert [ctx.eval_mem(x, x) for x in model.scope] == [alg.bottom] * len(model.scope)
    size = len(model.store)
    rep = check_comprehension_refuted(model, ctx)
    assert (rep.value, rep.valid, len(model.store)) == (alg.bottom, True, size)


def test_comprehension_needs_scope_names_of_rank_at_most_the_bound_plus_one():
    """x = {t: top | t in U_2} has rank 3 over rank bound 1: every member
    name of U_2 is in x at top, so the identity fails, and the check raises
    instead of reporting bottom."""
    alg = chain(2)
    store = NameStore()
    x_name = store.mk_name([(t, alg.top) for t in make_model(alg, store, 2).scope])
    model = make_model(alg, store, 1, scope=[x_name])
    assert store.get(x_name).rank == 3
    with pytest.raises(EvalError, match="rank at most the rank bound"):
        check_comprehension_refuted(model)
    assert enumerated_comprehension(model).value == alg.top


@pytest.mark.parametrize(
    "axiom, text, variables",
    [("separation", "~(x eq x) | ~~(x in x)", ("x",)), ("collection", "~(x eq y) | ~~(x in y)", ("x", "y"))],
)
def test_joined_instances_trip_the_cap_where_the_sentence_probe_does(axiom, text, variables):
    """A comega compound next to a negated atom with three options at
    most names, on the 3-chain at rank 3: the instances, probed one by
    one, trip ASSIGNMENT_CAP at the key where one probe of the sentence
    they instantiate trips it."""
    model = make_model(saturate(chain(3), "comega"), NameStore(), 3)
    phi = parse_formula(text)
    sentence = functools.reduce(lambda body, var: Forall(var, body), reversed(variables), phi)
    with pytest.raises(CapExceeded) as want:
        valuation_mod._probe((sentence, {}, (), (), ()), model, EvalContext(model), ASSIGNMENT_CAP)
    with pytest.raises(CapExceeded) as got:
        CHECKS[axiom](model, phi, *variables)
    fields = [(str(e.value), e.value.cap, e.value.limit, e.value.predicted) for e in (got, want)]
    assert fields[0] == fields[1]


def test_bounded_separation_reads_every_instance_key():
    """Under --bounded-opt the sentence forall x . (x in t -> psi) reads
    psi at the children of t only, yet every instance reads its own keys:
    the report is the one without the flag."""
    structure = saturate(chain(3), "comega")
    for text in ("x in #3 -> ~~(x eq x)", "x in #1 -> ~~(x in #2)"):
        plain, bounded = (
            check_separation(make_model(structure, NameStore(), 2, bounded_opt=flag), parse_formula(text), "x")
            for flag in (False, True)
        )
        assert plain == bounded


# --- separation as vectors over names, against the loop over the scope ----------------------

_VECTOR_FORMULAS = ["~(x in x)", "~(x eq x)", "~~(x eq x)", "exists y . (y in x & ~(y in x))", "~(x in #1)"]


def _separation_both(structure, rank, text, u=None):
    """check_separation and the loop over targets and scope names
    (``reference.separation``), each on a model of its own, under both
    quantifications: whole reports, or the same cap trip."""
    out = []
    for quant in ("all_assignments", "some_assignment"):
        pair = []
        for check in (check_separation, separation):
            model = make_model(structure, NameStore(), rank)
            try:
                pair.append(check(model, parse_formula(text), "x", u=u, quantification=quant))
            except CapExceeded as exc:
                pair.append((str(exc), exc.cap, exc.limit, exc.predicted))
        out.append(pair)
    return out


_FAMILIES_TO_4 = [
    *enumerate_heyting(4),
    *(fs for alg in enumerate_heyting(4) for kind in ("comega", "n4") for fs in search_mod._families(alg, "all", kind)),
]


def test_separation_vectors_match_the_scope_loop_at_rank_two():
    """Every algebra and every valid family of size <= 4."""
    answered = 0
    for structure, text in itertools.product(_FAMILIES_TO_4, _VECTOR_FORMULAS):
        for got, want in _separation_both(structure, 2, text):
            assert got == want, (structure, text)
            answered += not isinstance(got, tuple)
    assert answered > 100


@pytest.mark.parametrize("kind", ["algebra", "comega", "n4"])
def test_separation_vectors_match_the_scope_loop_at_rank_three(kind):
    structure = chain(3) if kind == "algebra" else saturate(chain(3), kind)
    for text in _VECTOR_FORMULAS:
        for got, want in _separation_both(structure, 3, text):
            assert got == want, text


def test_choice_free_separation_builds_no_blocks():
    """A choice-free phi decides separation by the congruence lemma: its
    vector is read and the first witness made, and no (position, name)
    block is built; a phi with choices still builds them."""
    built = []
    init = axioms_mod._Blocks.__init__

    def spy(self, *args):
        built.append(args)
        init(self, *args)

    with mock.patch.object(axioms_mod._Blocks, "__init__", spy):
        for structure, text in ((chain(3), "~(x in x)"), (saturate(chain(3), "n4"), "exists y . (y in x)")):
            for u in (None, 3):
                report = check_separation(make_model(structure, NameStore(), 3), parse_formula(text), "x", u=u)
                assert (report.value, report.valid, report.n_assignments) == (2, True, 1)
        assert built == []
        check_separation(make_model(saturate(chain(3), "n4"), NameStore(), 2), parse_formula("~(x in x)"), "x")
    assert built


def test_separation_vectors_split_the_positions_into_runs():
    """Runs of a few positions at a time give the same reports as one run."""
    runs = []
    init = axioms_mod._Blocks.__init__

    def spy(self, planes, width, lo, n):
        runs.append(lo)
        init(self, planes, width, lo, n)

    with mock.patch("pst.axioms._BLOCK_BITS", 16), mock.patch.object(axioms_mod._Blocks, "__init__", spy):
        for text in ("~(x eq #1 & x in x)", "~~(x eq x)", "~(x in #1)"):
            for got, want in _separation_both(saturate(chain(3), "comega"), 2, text):
                assert got == want, text
    assert max(runs) > 0


# --- union by the bounded lemma, emptyset by class, the powerset cap up front ----------------

_RANK_THREE = [chain(3), saturate(chain(3), "comega"), saturate(chain(3), "n4")]


def test_union_by_the_bounded_lemma_matches_the_scope_fold():
    """The right side read as a join of kernel columns over dom(u) gives
    the reports of the axiom's formula folded over the whole scope, at
    every target and at one."""
    for structure, rank in [*((s, 2) for s in _FAMILIES_TO_4[:40]), *((s, 3) for s in _RANK_THREE)]:
        for u in (None, make_model(structure, NameStore(), rank).scope[-1]):
            got = check_union(make_model(structure, NameStore(), rank), u=u)
            want = pointwise_union(make_model(structure, NameStore(), rank), u=u)
            assert got == want, (structure, rank, u)


def test_emptyset_by_class_matches_every_target():
    for structure, rank in [*((s, 2) for s in _STRUCTURES_TO_5), *((s, 3) for s in _RANK_THREE)]:
        got = check_emptyset(make_model(structure, NameStore(), rank))
        want = pointwise_emptyset(make_model(structure, NameStore(), rank))
        assert got == want, (structure, rank)


# --- pairing, union, emptyset and extensionality by the definition of membership -----------

_MEMBERSHIP_ORACLES = {
    "pairing": (check_pairing, pointwise_pairing),
    "union": (check_union, pointwise_union),
    "emptyset": (check_emptyset, pointwise_emptyset),
    "extensionality": (check_extensionality, pointwise_extensionality),
}


def _single_targets(axiom, scope):
    """At rank 3, the first and last scope names as targets: one pair for
    pairing, each name for union, none for the checks without targets."""
    if axiom == "pairing":
        return [{"u": scope[0], "v": scope[-1]}]
    if axiom == "union":
        return [{"u": scope[0]}, {"u": scope[-1]}]
    return [{}]


@pytest.mark.parametrize("axiom", sorted(_MEMBERSHIP_ORACLES))
def test_membership_checks_match_their_formulas(axiom):
    """Each check computes nothing, its witness satisfying the axiom by the
    definition of membership; the oracle evaluates the axiom's own formula
    at every pair, target and choice, and gives the same report."""
    check, oracle = _MEMBERSHIP_ORACLES[axiom]
    inputs = [*((s, r, [{}]) for s in _STRUCTURES_TO_5 for r in (1, 2)), *((s, 2, [{}]) for s in _FAMILIES_TO_4[:40])]
    inputs += [(s, 3, _single_targets(axiom, make_model(s, NameStore(), 3).scope)) for s in _RANK_THREE]
    for structure, rank, targets in inputs:
        for kwargs in targets:
            got = check(make_model(structure, NameStore(), rank), **kwargs)
            want = oracle(make_model(structure, NameStore(), rank), **kwargs)
            assert got == want, (structure, rank, kwargs)


def test_extensionality_needs_a_scope_closed_under_children():
    """z = {empty: top} is a child of x = {z: top} but not in the scope
    [x, empty]: the sentence's value there is bottom, not top."""
    alg = chain(3)
    store = NameStore()
    e = store.empty_name()
    x_name = store.mk_name([(store.mk_name([(e, alg.top)]), alg.top)])
    model = make_model(alg, store, 2, mode="heyting", scope=[x_name, e])
    with pytest.raises(EvalError, match="extensionality needs a scope closed under children"):
        check_extensionality(model)
    assert pointwise_extensionality(model).value == alg.bottom


def test_membership_checks_on_the_empty_scope():
    """Rank 0 has no names: no witness, and emptyset counts no assignment."""
    for structure in (chain(3), saturate(chain(3), "n4")):
        model = make_model(structure, NameStore(), 0)
        assert model.scope == ()
        top = model.algebra.top
        for check, n_assignments in ((check_pairing, 1), (check_union, 1), (check_extensionality, 1), (check_emptyset, 0)):
            report = check(model)
            assert (report.value, report.valid, report.witnesses, report.n_assignments) == (top, True, (), n_assignments)


def test_powerset_cap_trips_before_any_candidate_function():
    """The first target past the cap, in scope order, trips it before a
    candidate function is made: 3^4 = 81 functions on the 3-chain at rank 3."""
    model = make_model(chain(3), NameStore(), 3)
    size = len(model.store)
    with pytest.raises(CapExceeded) as trip:
        check_powerset(model, cap=80)
    assert (trip.value.cap, trip.value.limit, trip.value.predicted) == ("POWERSET_CAP", 80, 81)
    assert str(trip.value) == "powerset would need 81 candidate functions"
    assert len(model.store) == size


# --- induction decided by induction on rank and Leibniz's law -------------------------------


def _induction(model, text, quant):
    report = check_induction(model, parse_formula(text), "x", quant)
    return report.value, report.valid, report.n_assignments


def test_decided_induction_matches_the_schema():
    """A phi with no negation choice and no predicate atom, over a scope
    closed under children, gives top with no schema built: the same
    (value, valid, assignments), or the same error, as the schema evaluated
    under each assignment, over every algebra of size <= 4 at ranks 0-2."""
    texts = ["x eq x", "exists y . (y in x)", "forall y . (y in x -> y eq y)", "~(x in x)", "x in #0"]
    for alg in enumerate_heyting(4):
        for rank in (0, 1, 2):
            model = make_model(alg, NameStore(), rank)
            for text in texts + [f"x in #{k}" for k in model.scope[-1:]]:
                for quant in QUANTIFICATIONS:
                    with mock.patch.object(axioms_mod, "sweep_assignments", side_effect=AssertionError("schema built")):
                        try:
                            got = _induction(model, text, quant)
                        except PstError as exc:
                            got = exc
                    try:
                        want = enumerated_induction(model, parse_formula(text), "x", quant)
                    except PstError as exc:
                        assert (type(got), str(got)) == (type(exc), str(exc)), (alg.size, rank, text)
                        continue
                    assert got == want == (alg.top, True, 1), (alg.size, rank, text, quant)


def test_induction_over_a_scope_not_closed_under_children_sweeps_the_schema():
    """z = {empty: top}, a child of x = {z: top}, is not in the scope
    [x, empty]: induction by a choice-free phi is swept there, as the
    schema's value."""
    alg = chain(3)
    store = NameStore()
    e = store.empty_name()
    x_name = store.mk_name([(store.mk_name([(e, alg.top)]), alg.top)])
    model = make_model(alg, store, 2, mode="heyting", scope=[x_name, e])
    swept = []
    sweep = axioms_mod.sweep_assignments

    def spy(*args):
        swept.append(args[0])
        return sweep(*args)

    for text in ("exists y . (y in x)", "~(x in x)", f"x in #{x_name}"):
        for quant in QUANTIFICATIONS:
            with mock.patch.object(axioms_mod, "sweep_assignments", spy):
                got = _induction(model, text, quant)
            assert got == enumerated_induction(model, parse_formula(text), "x", quant)
    assert len(swept) == 6


def test_induction_fresh_variable_avoids_the_bound_ones():
    """forall x_y . ~(x_y in x) and its alpha-variant forall z . ~(z in x)
    give the same report: the schema's y avoids phi's bound variables."""
    for kind in ("n4", "comega"):
        model = make_model(saturate(chain(3), kind), NameStore(), 2)
        for quant in QUANTIFICATIONS:
            reports = [
                check_induction(model, parse_formula(text), "x", quant)
                for text in ("forall x_y . ~(x_y in x)", "forall z . ~(z in x)", "forall x_y . forall x_y_ . ~(x_y_ in x)")
            ]
            assert reports[0] == reports[1] == reports[2]
            assert (reports[0].value, reports[0].valid, reports[0].n_assignments) == (2, True, 9)
            for text in ("forall x_y . ~(x_y in x)", "forall x_y . forall x_y_ . ~(x_y_ in x)"):
                want = enumerated_induction(model, parse_formula(text), "x", quant)
                assert _induction(model, text, quant) == want
