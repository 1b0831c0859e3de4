from unittest import mock

import pytest

from pst.algebra import enumerate_heyting
from pst.errors import CapExceeded
from pst.fidel import saturate
from pst import search as search_mod
from pst import valuation as valuation_mod
from pst.proofs import (
    _QUANT_INSTANCES,
    SYSTEMS,
    NoMatch,
    ProofError,
    SideConditionViolated,
    _audit_quantified,
    _propositional_instances,
    audit_soundness,
    check_derivation,
    match_schema,
)
from derivation_corpus import CURATED, ID_ARROW, MUTATIONS
from reference import table_audit_quantified, theta_audit
from pst.syntax import (
    Exists,
    Forall,
    FuncApp,
    Imp,
    Pred,
    Signature,
    Var,
    formula_to_text,
    iff_sides,
    parse_derivation_text,
    parse_formula,
)
from pst.valuation import eval_sentence

p, q = Pred("p", ()), Pred("q", ())


def test_id_arrow_accepted():
    res = check_derivation(parse_derivation_text(ID_ARROW))
    assert res.ok
    assert res.proven == parse_formula("p -> p")


@pytest.mark.parametrize("name", sorted(CURATED))
def test_curated_derivations_accepted(name):
    res = check_derivation(parse_derivation_text(CURATED[name]))
    assert res.ok, (name, res.line, res.reason)


@pytest.mark.parametrize("name,text,line", MUTATIONS)
def test_mutations_rejected_at_line(name, text, line):
    res = check_derivation(parse_derivation_text(text))
    assert not res.ok, name
    assert res.line == line, (name, res.line, res.reason)


def test_qcw_system_accepts_its_axioms():
    text = """
derivation lem system=qcw
1: p | ~p [axiom CW1]
2: ~(~p) -> p [axiom CW2]
qed 1
"""
    res = check_derivation(parse_derivation_text(text))
    assert res.ok


def test_qcw_rejects_strong_negation_axioms():
    text = """
derivation wrong system=qcw
1: (~(p & q) -> ~p | ~q) & ((~p | ~q) -> ~(p & q)) [axiom N10]
qed 1
"""
    res = check_derivation(parse_derivation_text(text))
    assert not res.ok and res.line == 1


def test_qn3_has_explosion_qn4_does_not():
    text = """
derivation boom system=n3
1: ~p -> (p -> q) [axiom N14]
qed 1
"""
    assert check_derivation(parse_derivation_text(text)).ok
    assert not check_derivation(
        parse_derivation_text(text.replace("system=n3", "system=n4"))
    ).ok


def test_open_premise_rejected():
    text = """
derivation open system=n4
premise 1: P(x)
1: P(x) [premise 1]
qed 1
"""
    res = check_derivation(parse_derivation_text(text))
    assert not res.ok
    assert "close it universally" in res.reason


def test_monotone_under_premise_extension():
    base = parse_derivation_text(CURATED["detachment"])
    extended_text = CURATED["detachment"].replace(
        "premise 2: p -> q", "premise 2: p -> q\npremise 3: q -> p"
    )
    extended = parse_derivation_text(extended_text)
    assert check_derivation(base).ok
    assert check_derivation(extended).ok


def test_qed_missing_line():
    res = check_derivation(parse_derivation_text(ID_ARROW.replace("qed 5", "qed 9")))
    assert not res.ok and res.line == 9


# --- schema matching -------------------------------------------------------------


def test_match_n1_instances():
    binds = match_schema(parse_formula("p -> (q -> p)"), "N1")
    assert binds == {"alpha": p, "beta": q}
    binds = match_schema(parse_formula("(p -> p) -> (q -> (p -> p))"), "N1")
    assert binds == {"alpha": Imp(p, p), "beta": q}


def test_match_rejects_non_instance():
    with pytest.raises(NoMatch):
        match_schema(parse_formula("p -> (q -> q)"), "N1")


def test_n12_n13_share_a_template():
    phi = parse_formula("(~(~p) -> p) & (p -> ~(~p))")
    assert match_schema(phi, "N12") == match_schema(phi, "N13")


def test_match_a2_with_term_discovery():
    phi = Imp(Forall("x", Pred("P", (Var("x"), Var("x")))), Pred("P", (FuncApp("c", ()), FuncApp("c", ()))))
    binds = match_schema(phi, "A2")
    assert binds["t"] == FuncApp("c", ())
    bad = Imp(
        Forall("x", Pred("P", (Var("x"), Var("x")))),
        Pred("P", (FuncApp("c", ()), FuncApp("d", ()))),
    )
    with pytest.raises(NoMatch):
        match_schema(bad, "A2")


def test_match_a1_vacuous_and_capture():
    # no free occurrence: left must equal the matrix
    phi = Imp(q, Exists("x", q))
    binds = match_schema(phi, "A1")
    assert binds["t"] == Var("x")
    # capture: substituting y for x under exists y would bind it
    capture = Imp(
        Exists("y", Pred("P", (Var("y"), Var("y")))),
        Exists("x", Exists("y", Pred("P", (Var("x"), Var("y"))))),
    )
    with pytest.raises((NoMatch, SideConditionViolated)):
        match_schema(capture, "A1")


def test_a2_side_condition_violated():
    phi = Imp(
        Forall("x", Exists("y", Pred("P", (Var("x"), Var("y"))))),
        Exists("y", Pred("P", (Var("y"), Var("y")))),
    )
    with pytest.raises(SideConditionViolated):
        match_schema(phi, "A2")


_QSIG = Signature(functions={"c": 0, "d": 0, "f": 1, "g": 1, "h": 2})


@pytest.mark.parametrize(
    "sid, text",
    [
        # another function symbol, or another arity
        ("A2", "(forall x . P(f(x))) -> P(g(c))"),
        ("A1", "P(h(c, c)) -> (exists x . P(f(x)))"),
        # another free variable
        ("A2", "(forall x . P(x, y)) -> P(c, z)"),
        # a different connective
        ("A2", "(forall x . P(x) & q) -> (P(c) | q)"),
        ("A1", "~(c in c) -> (exists x . (x in c))"),
        # an inner quantifier over another variable
        ("A2", "(forall x . exists y . P(x, y)) -> (exists z . P(c, z))"),
        # in / eq atoms, & and ~ with one side off
        ("A2", "(forall x . (x in c & ~(x eq c))) -> (f(c) in c & ~(f(c) eq d))"),
        ("A1", "(c in d & ~(d eq c)) -> (exists x . (x in c & ~(x eq c)))"),
        ("A1", "(f(c) eq c & ~(f(c) in c)) -> (exists x . (x eq c & ~(x in d)))"),
        ("A2", "(forall x . (x in c & ~(x eq x))) -> (c in c & ~(c eq d))"),
        # two occurrences of x met by two different terms, or one by a
        # term that a constant of the matrix does not match
        ("A2", "(forall x . P(h(x, x))) -> P(h(c, d))"),
        ("A2", "(forall x . P(h(x, c))) -> P(h(d, d))"),
    ],
)
def test_quantifier_schemas_reject_near_instances(sid, text):
    with pytest.raises(NoMatch, match="side is not a substitution instance"):
        match_schema(parse_formula(text, _QSIG), sid)


@pytest.mark.parametrize(
    "sid, text, t",
    [
        ("A2", "(forall x . (x in c & ~(x eq c))) -> (f(c) in c & ~(f(c) eq c))", FuncApp("f", (FuncApp("c", ()),))),
        ("A1", "(d in c & ~(d eq c)) -> (exists x . (x in c & ~(x eq c)))", FuncApp("d", ())),
        ("A1", "(c eq d & ~(c in c)) -> (exists x . (x eq d & ~(x in x)))", FuncApp("c", ())),
        ("A2", "(forall x . ~(y in x) & x eq y) -> (~(y in g(y)) & g(y) eq y)", FuncApp("g", (Var("y"),))),
        # the witness term is an argument inside function terms
        ("A1", "P(h(f(d), c)) -> (exists x . P(h(f(x), c)))", FuncApp("d", ())),
        # x free only after atoms the substitution leaves as they are
        ("A2", "(forall x . ((forall x . x in c) & x eq c)) -> ((forall x . x in c) & f(d) eq c)", FuncApp("f", (FuncApp("d", ()),))),
    ],
)
def test_quantifier_schemas_match_atom_bodies(sid, text, t):
    binds = match_schema(parse_formula(text, _QSIG), sid)
    assert binds["x"] == "x" and binds["t"] == t


def test_systems_fixed():
    assert set(SYSTEMS) == {"qn4", "qn3", "qcw"}
    assert "N14" in SYSTEMS["qn3"] and "N14" not in SYSTEMS["qn4"]
    assert "CW1" in SYSTEMS["qcw"] and "N9" not in SYSTEMS["qcw"]


# --- soundness audit ----------------------------------------------------------------


def test_biconditional_instances_keep_their_shared_sides():
    """N9-N13 are <-> templates: each instance shares its two sides between
    the two implications, so the evaluator reads each side once."""
    for sid in ("N9", "N10", "N11", "N12", "N13"):
        for inst in _propositional_instances(sid):
            assert iff_sides(inst) is not None, (sid, formula_to_text(inst))


def test_audit_qn4_small_budget_clean():
    rep = audit_soundness("qn4", max_domain=1, max_algebra=3)
    assert rep.ok
    assert rep.n_instances > 50
    assert rep.n_evaluations > 500


def test_audit_qn3_reports_n14_countermodels():
    rep = audit_soundness("qn3", max_domain=1, max_algebra=2)
    assert not rep.ok
    assert {f.schema for f in rep.failures} == {"N14"}
    first = rep.failures[0]
    assert first.algebra_size == 2 and first.value != 1


def test_audit_qcw_positive_fragment_clean():
    # CW1/CW2 hold over saturated families by construction of the choices
    rep = audit_soundness("qcw", max_domain=1, max_algebra=3)
    assert rep.ok, rep.failures[:3]


def test_audit_rejects_an_empty_budget():
    """An audit over no algebra, or over no domain, would report no failures
    without evaluating anything."""
    for system in SYSTEMS:
        for max_algebra in (0, -1):
            with pytest.raises(ProofError, match="max_algebra must be at least 1"):
                audit_soundness(system, max_domain=1, max_algebra=max_algebra)
        with pytest.raises(ProofError, match="max_domain must be at least 1"):
            audit_soundness(system, max_domain=0, max_algebra=2)


def test_audit_eval_cap_reports_the_whole_audit():
    """A trip names the caller's eval_cap and the audit's running total,
    not the budget left for the instance that holds it: the full qn4 audit
    at these bounds makes 1 179 848 evaluations."""
    with pytest.raises(CapExceeded) as exc:
        audit_soundness("qn4", max_domain=3, max_algebra=6, eval_cap=1_179_847)
    assert (exc.value.cap, exc.value.limit, exc.value.predicted) == ("eval_cap", 1_179_847, 1_179_848)


_SIG = Signature(functions={"c": 0, "f": 1})

# instances below top somewhere: negated ones, and positive non-theorems
_FAILING = [
    parse_formula(text, _SIG)
    for text in (
        "(forall x . ~P(x)) -> ~P(c)",
        "forall x . ~P(x) -> ~P(c)",
        "~P(c) -> exists x . ~P(x)",
        "(forall x . ~(P(x) & q)) -> ~(P(c) & q)",
        "(exists x . ~P(x)) -> ~P(f(c))",
        "~~P(f(c)) <-> (forall x . P(x) | ~P(x))",
        "P(c) -> forall x . P(x)",
        "(exists x . P(x)) -> P(c)",
    )
]
# a binary predicate and two predicate symbols: the order of the cell digits
_BINARY = parse_formula("(forall x . R(x, c) & P(x)) -> R(c, c)", _SIG)
_INSTANCES = [(sid, inst) for sid, insts in _QUANT_INSTANCES.items() for inst in insts]
_INSTANCES += [("A2", inst) for inst in _FAILING]


def test_quantified_audit_matches_the_theta_oracle():
    """The audit's one vector evaluation per function table gives the
    evaluation count and the failure list, in order, of evaluating the
    instance over every negated-atom table by the textbook clauses.  The
    binary instance has 12 cells at domain size 3, too many tables for the
    oracle, so it runs at domain sizes <= 2 only."""
    ranges = [(_INSTANCES, 4, 2), (_INSTANCES, 3, 3), ([("A2", _BINARY)], 3, 2)]
    failing = 0
    for instances, max_algebra, max_domain in ranges:
        algebras = list(enumerate_heyting(max_algebra))
        structures = [saturate(alg, "n4") for alg in algebras]
        for sid, inst in instances:
            failures = []
            count = _audit_quantified(sid, inst, structures, max_domain, failures, 10**9)
            want = theta_audit(sid, inst, algebras, max_domain)
            assert (count, failures) == want, (formula_to_text(inst), max_algebra, max_domain)
            failing += bool(failures)
    assert failing >= 10  # the failure lists are compared, not only empty ones


def test_quantified_audit_matches_the_per_table_loop():
    """Over every algebra of size <= 5 at domain sizes <= 1 and <= 2, the
    same count and the same failures, in order, as one model, context and
    index per predicate table.  The binary instance has 7e6 evaluations at
    domain size 2, so it runs at domain size 1 only."""
    structures = [saturate(alg, "n4") for alg in enumerate_heyting(5)]
    runs = [(sid, inst, max_domain) for sid, inst in _INSTANCES for max_domain in (1, 2)]
    runs.append(("A2", _BINARY, 1))
    for sid, inst, max_domain in runs:
        got, want = [], []
        count = _audit_quantified(sid, inst, structures, max_domain, got, 10**9)
        assert count == table_audit_quantified(sid, inst, structures, max_domain, want, 10**9)
        assert got == want, (formula_to_text(inst), max_domain)


def _padded_builds(structures, cell_counts):
    """The indexes a plan builds that pads every negation digit to the
    longest N_v: the outer cells' tables, per structure and domain size."""
    total = 0
    for fs in structures:
        n, longest = fs.algebra.size, max(map(len, fs.negs))
        for cells in cell_counts:
            inner = cells
            while inner and n**inner * longest**cells > valuation_mod._SWEEP_SIZE:
                inner -= 1
            total += n ** (cells - inner)
    return total


def test_quantified_runs_fix_outer_cells_at_their_actual_radices():
    """Six cells at domain size 2 (R on 4 pairs, P on 2 names): an outer
    cell's negation digit takes the radix of its N_v, so the runs hold more
    tables than under padding and fewer indexes are built, with the same
    count and failures as the per-table loop, over the saturated n4
    families of size <= 3.  The instance holds; its converse fails."""
    sig = Signature(functions={"c": 0})
    structures = [saturate(alg, "n4") for alg in enumerate_heyting(3)]
    for text in ("(forall x . R(x, c) & P(x)) -> R(c, c)", "R(c, c) -> (forall x . R(x, c) & P(x))"):
        inst = parse_formula(text, sig)
        got, want = [], []
        with mock.patch.object(search_mod, "AssignmentIndex", wraps=search_mod.AssignmentIndex) as index:
            count = _audit_quantified("A2", inst, structures, 2, got, 10**9)
        assert count == table_audit_quantified("A2", inst, structures, 2, want, 10**9)
        assert got == want
        assert index.call_count < _padded_builds(structures, (2, 6))
    assert got and len(got) < count


def test_quantified_tables_past_the_sweep_size_are_swept_alone():
    """A predicate table whose negation digits alone pass the sweep size is
    swept in runs of its own (``search._swept_table``), and the failures
    keep their order: by predicate table, then function table, then
    negation table across the table's runs."""
    sig = Signature(functions={"c": 0})
    inst = parse_formula("R(c, c) -> (forall x . R(x, c) & P(x))", sig)
    structures = [saturate(alg, "n4") for alg in enumerate_heyting(3)]
    got, want = [], []
    with mock.patch.object(valuation_mod, "_SWEEP_SIZE", 4), mock.patch.object(
        search_mod, "_swept_table", wraps=search_mod._swept_table
    ) as swept:
        count = _audit_quantified("A2", inst, structures, 2, got, 10**9)
    assert count == table_audit_quantified("A2", inst, structures, 2, want, 10**9)
    assert got == want and len(got) > 1000
    assert swept.call_count > 0


def _trip(audit, inst, structures, budget):
    with pytest.raises(CapExceeded) as exc:
        audit("A1", inst, structures, 3, [], budget)
    return exc.value.cap, exc.value.limit, exc.value.predicted


def test_quantified_audit_budget():
    """Every budget trips where one evaluation per (predicate table,
    function table) would, with the same fields, in runs of the default
    size and in runs of a few tables; and nothing of the structure and
    domain size that hold the trip is evaluated: the positions evaluated
    are those of the (structure, domain size) pairs wholly before it."""
    inst = _QUANT_INSTANCES["A1"][1]
    structures = [saturate(alg, "n4") for alg in enumerate_heyting(3)]
    assert _audit_quantified("A1", inst, structures, 3, [], 10**9) > 400
    # the evaluations up to the end of each (structure, domain size) pair
    ends = [0]
    for fs in structures:
        for dsize in (1, 2, 3):
            pair = _audit_quantified("A1", inst, [fs], dsize, [], 10**9)
            pair -= _audit_quantified("A1", inst, [fs], dsize - 1, [], 10**9)
            ends.append(ends[-1] + pair)
    evaluated = []

    def counting(phi, model, index, ctx, path=()):
        evaluated.append(index.valid.bit_count())
        return eval_sentence(phi, model, index, ctx, path)

    for budget in range(401):
        want = _trip(table_audit_quantified, inst, structures, budget)
        assert want[:2] == ("eval_cap", budget) and want[2] > budget
        for sweep_size in (valuation_mod._SWEEP_SIZE, 256):
            evaluated.clear()
            with mock.patch.object(valuation_mod, "_SWEEP_SIZE", sweep_size), mock.patch.object(
                search_mod, "eval_sentence", counting
            ):
                assert _trip(_audit_quantified, inst, structures, budget) == want
            assert sum(evaluated) == max(end for end in ends if end <= budget), (budget, sweep_size)
