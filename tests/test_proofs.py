import pytest

from pst.algebra import enumerate_heyting
from pst.errors import CapExceeded
from pst.fidel import saturate
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
from reference import theta_audit
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


def test_quantified_audit_matches_the_theta_oracle():
    """The audit's one vector evaluation per table gives the evaluation count
    and the failure list, in order, of evaluating the instance over every
    negated-atom table by the textbook clauses."""
    sig = Signature(functions={"c": 0, "f": 1})
    negated = [
        parse_formula(text, sig)
        for text in (
            "(forall x . ~P(x)) -> ~P(c)",
            "forall x . ~P(x) -> ~P(c)",
            "~P(c) -> exists x . ~P(x)",
            "(forall x . ~(P(x) & q)) -> ~(P(c) & q)",
            "(exists x . ~P(x)) -> ~P(f(c))",
            "~~P(f(c)) <-> (forall x . P(x) | ~P(x))",
        )
    ]
    instances = [(sid, inst) for sid, insts in _QUANT_INSTANCES.items() for inst in insts]
    instances += [("A2", inst) for inst in negated]
    algebras = list(enumerate_heyting(4))
    failing = 0
    for sid, inst in instances:
        failures = []
        count = _audit_quantified(sid, inst, [saturate(alg, "n4") for alg in algebras], 2, failures, 10**9)
        assert (count, failures) == theta_audit(sid, inst, algebras, 2), formula_to_text(inst)
        failing += bool(failures)
    assert failing >= 2  # the failure lists are compared, not only empty ones


def test_quantified_audit_budget():
    inst = _QUANT_INSTANCES["A2"][0]
    structures = [saturate(alg, "n4") for alg in enumerate_heyting(3)]
    with pytest.raises(CapExceeded) as exc:
        _audit_quantified("A2", inst, structures, 2, [], 10)
    assert exc.value.cap == "eval_cap" and exc.value.limit == 10 and exc.value.predicted > 10
