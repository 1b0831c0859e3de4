import dataclasses
import random

import pytest

from pst.algebra import chain, enumerate_heyting
from pst.fidel import FidelError, FStructure, saturate, validate_comega, validate_n4
from pst.search import (
    Budget,
    _families,
    _recertify,
    Exhausted,
    Finding,
    SearchError,
    SearchGoal,
    congruence_probe,
    search,
)
from pst.syntax import parse_formula
from reference import raw_families


def test_non_explosion_finding():
    out = search(SearchGoal("non_explosion", budget=Budget(max_algebra=3)))
    assert isinstance(out, Finding)
    # smallest certificate first: already over the two-element algebra,
    # whose saturated family allows top as a negation of top
    assert out.algebra_size == 2
    values = dict(out.values)
    top = out.structure.algebra.top
    assert values["p"] == top and values["~p"] == top and values["q"] < top


def test_non_explosion_deterministic():
    a = search(SearchGoal("non_explosion"))
    b = search(SearchGoal("non_explosion"))
    assert a == b


def test_refute_n14_separates_n4_from_n3():
    out = search(SearchGoal("separate_n4_n3", budget=Budget(max_algebra=3)))
    assert isinstance(out, Finding)
    ((text, value),) = out.values
    assert value != out.structure.algebra.top


def test_lem_exhausted_over_saturated_comega():
    out = search(
        SearchGoal(
            "refute_formula",
            formula=parse_formula("p | ~p"),
            logic="comega",
            budget=Budget(max_algebra=3),
        )
    )
    assert isinstance(out, Exhausted)
    assert out.count("evaluations") > 0


def test_double_negation_elim_exhausted_over_saturated_comega():
    out = search(
        SearchGoal(
            "refute_formula",
            formula=parse_formula("~(~p) -> p"),
            logic="comega",
            budget=Budget(max_algebra=3),
        )
    )
    assert isinstance(out, Exhausted)


def test_refute_formula_finds_peirce_failure():
    # Peirce's law fails over the 3-chain (intuitionistic countermodel)
    out = search(
        SearchGoal(
            "refute_formula",
            formula=parse_formula("((p -> q) -> p) -> p"),
            budget=Budget(max_algebra=3),
        )
    )
    assert isinstance(out, Finding)
    assert out.algebra_size == 3


def test_refute_sequent_non_explosion_form():
    out = search(
        SearchGoal(
            "refute_sequent",
            formula=parse_formula("q"),
            premises=(parse_formula("p"), parse_formula("~p")),
            budget=Budget(max_algebra=3),
        )
    )
    assert isinstance(out, Finding)
    vals = dict(out.values)
    assert vals["p"] == out.structure.algebra.top
    assert vals["~p"] == out.structure.algebra.top
    assert vals["q"] != out.structure.algebra.top


def test_refute_sequent_modus_ponens_exhausted():
    out = search(
        SearchGoal(
            "refute_sequent",
            formula=parse_formula("q"),
            premises=(parse_formula("p"), parse_formula("p -> q")),
            budget=Budget(max_algebra=2),
        )
    )
    assert isinstance(out, Exhausted)


def test_search_goal_validation():
    with pytest.raises(SearchError):
        search(SearchGoal("unknown_goal"))
    with pytest.raises(SearchError):
        search(SearchGoal("refute_formula"))
    # premises belong to refute_sequent; the other goals do not drop them
    for kind in ("refute_formula", "non_explosion", "separate_n4_n3"):
        with pytest.raises(SearchError, match="takes no premises"):
            search(SearchGoal(kind, formula=parse_formula("q"), premises=(parse_formula("q"),)))


def test_non_explosion_is_the_sequent_p_not_p_entails_q():
    """The goal's finding is refute_sequent's for p, ~p |- q, field by field
    but for the goal and the description: p = ~p = top, q = 0, the same atom
    table and assignment."""
    sequent = (parse_formula("p"), parse_formula("~p"))
    budgets = [Budget(max_algebra=m) for m in (2, 3, 4, 5)]
    budgets += [Budget(max_algebra=m, families="all") for m in (2, 3, 4, 5)]
    for logic in ("n4", "comega"):
        for budget in budgets:
            ne = search(SearchGoal("non_explosion", logic=logic, budget=budget))
            seq = search(
                SearchGoal("refute_sequent", formula=parse_formula("q"), premises=sequent, logic=logic, budget=budget)
            )
            assert isinstance(ne, Finding)
            assert dataclasses.replace(ne, goal=seq.goal, description=seq.description) == seq
            top = ne.structure.algebra.top
            assert ne.values == (("p", top), ("~p", top), ("q", 0))
            assert ne.atom_values == (("p", top), ("q", 0))
            assert ne.description == (
                f"||p|| = ||~p|| = {top} (top) while ||q|| = 0 < top;",
                "the contradictory pair {p, ~p} holds without q following",
            )
    # only the one-element algebra, where q is top, has no certificate
    out = search(SearchGoal("non_explosion", budget=Budget(max_algebra=1)))
    assert isinstance(out, Exhausted) and out.census == (("evaluations", 1),)


def test_empty_budget_is_an_error():
    """No algebra within budget is an error, not an exhausted search."""
    for max_algebra in (0, -1):
        budget = Budget(max_algebra=max_algebra)
        with pytest.raises(SearchError, match="max_algebra must be at least 1"):
            search(SearchGoal("refute_formula", formula=parse_formula("p"), budget=budget))
        with pytest.raises(SearchError, match="max_algebra must be at least 1"):
            congruence_probe(budget)


def test_all_families_match_the_raw_product():
    """Backtracking yields the families of validating the whole raw product,
    in its order, for every algebra of size <= 4."""
    for alg in enumerate_heyting(4):
        for kind in ("n4", "comega"):
            assert list(_families(alg, "all", kind)) == list(raw_families(alg, kind)), (alg.size, kind)


def _masks(fam):
    return tuple(sum(1 << e for e in ns) for ns in fam)


def _sets(masks, size):
    return [[e for e in range(size) if m >> e & 1] for m in masks]


def test_all_families_at_size_five_agree_with_validation():
    """Size 5 is out of the raw product's reach (31^5 families), so sample
    it: every generated family validates, they come in strictly increasing
    product order, and a sampled raw family validates exactly when it was
    generated.  Half the sample is uniform; the other half differs from a
    generated family in one element of one N_x, where valid families are
    dense."""
    rng = random.Random(5)
    for alg in (a for a in enumerate_heyting(5) if a.size == 5):
        full = (1 << alg.size) - 1
        for kind, validate in (("n4", validate_n4), ("comega", validate_comega)):
            generated = [_masks(fs.negs) for fs in _families(alg, "all", kind)]
            assert generated and generated == sorted(set(generated))
            for fam in generated:
                validate(alg, _sets(fam, alg.size))
            accepted = set(generated)
            for i in range(1000):
                if i % 2:
                    fam = list(rng.choice(generated))
                    fam[rng.randrange(alg.size)] ^= 1 << rng.randrange(alg.size)
                else:
                    fam = [rng.randint(1, full) for _ in range(alg.size)]
                try:
                    validate(alg, _sets(fam, alg.size))
                    valid = True
                except FidelError:
                    valid = False
                assert valid == (tuple(fam) in accepted), (kind, fam)


def test_all_families_search():
    out = search(
        SearchGoal(
            "non_explosion",
            budget=Budget(max_algebra=2, families="all"),
        )
    )
    assert isinstance(out, Finding)


# --- congruence probe ----------------------------------------------------------------


def test_congruence_probe_saturated_three_chain():
    out = congruence_probe(structures=[saturate(chain(3), "comega")])
    assert isinstance(out, Finding)
    vals = dict(out.values)
    assert vals["~p"] != vals["~q"]
    assert dict(out.atom_values)["p"] == dict(out.atom_values)["q"]


def test_congruence_probe_two_boolean():
    out = congruence_probe(structures=[saturate(chain(2), "comega")])
    assert isinstance(out, Finding)
    # frozen: both atoms at the top value, choices bottom vs top
    assert dict(out.atom_values) == {"p": 1, "q": 1}
    assert out.values == (("~p", 0), ("~q", 1))


def test_congruence_probe_functional_family_exhausted():
    functional = FStructure(chain(2), ((1,), (0,)), "comega")
    out = congruence_probe(structures=[functional])
    assert isinstance(out, Exhausted)
    assert out.count("structures") == 1


def test_congruence_probe_budget_enumeration():
    out = congruence_probe(Budget(max_algebra=2))
    assert isinstance(out, Finding)


def _corrupt(finding, index, value):
    values = list(finding.values)
    values[index] = (values[index][0], value)
    return dataclasses.replace(finding, values=tuple(values))


def test_recertify_compares_every_value_under_the_named_assignment():
    goal = SearchGoal("non_explosion", budget=Budget(max_algebra=3))
    out = search(goal)
    _recertify(out, goal)
    top = out.structure.algebra.top
    # ~p is claimed under the finding's own assignment; another assignment
    # reaching the corrupted value does not vouch for it
    for index, value in ((1, 0), (2, top), (0, 0)):
        with pytest.raises(SearchError):
            _recertify(_corrupt(out, index, value), goal)
    with pytest.raises(SearchError):
        _recertify(dataclasses.replace(out, assignment_fingerprint="0" * 12), goal)


def test_sequent_premises_and_conclusion_share_one_assignment():
    # comega chooses ~(p & q) per occurrence; premises and conclusion are
    # evaluated at their positions in the joint sentence, and recertified so
    goal = SearchGoal(
        "refute_sequent",
        formula=parse_formula("~(p & q) & p"),
        premises=(parse_formula("~(p & q)"), parse_formula("p")),
        logic="comega",
        budget=Budget(max_algebra=3),
    )
    out = search(goal)
    assert isinstance(out, Finding)
    top = out.structure.algebra.top
    assert [v for _, v in out.values[:2]] == [top, top] and out.values[2][1] != top
    with pytest.raises(SearchError):
        _recertify(_corrupt(out, 2, top), goal)
