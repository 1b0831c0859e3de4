"""The sweep of ``search._table_walk`` against the per-table walk it
replaced (``reference.table_walk``): the same positions, in the same order,
with the same atom tables, assignments and part values; the same audit
reports and search results; and the same cap trips."""

import contextlib
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pst import proofs as proofs_mod
from pst import search as search_mod
from pst import valuation as valuation_mod
from pst.algebra import chain, enumerate_heyting
from pst.errors import CapExceeded
from pst.fidel import saturate
from pst.proofs import audit_soundness
from pst.search import GOALS, Budget, SearchGoal, _sequent, _table_walk, search
from pst.names import NameStore
from pst.syntax import And, FuncApp, Imp, NameConst, Neg, Or, Pred, Signature, iff, map_terms, parse_formula
from pst.valuation import ASSIGNMENT_CAP, AssignmentIndex, EvalContext, eval_sentence, make_model
from reference import table_walk, walk_audit, walk_search

_STRUCTURES_TO_4 = [saturate(alg, kind) for alg in enumerate_heyting(4) for kind in ("n4", "comega")]


@contextlib.contextmanager
def _sweep_size(size):
    """Runs of at most size positions; yields the list of the indexes that
    the walk builds for runs of several tables, each of which keeps to the
    size (a table past it is swept on its own, by ``_swept_table``)."""
    built = []

    def build(*args):
        built.append(AssignmentIndex(*args))
        return built[-1]

    with mock.patch.object(valuation_mod, "_SWEEP_SIZE", size), mock.patch.object(
        search_mod, "AssignmentIndex", side_effect=build
    ):
        yield built


def _positions(joint, parts, structures, cap):
    """The sweep, one (structure, table, assignment, part values) per valid
    position."""
    for fs, p, values, valid, decode in _table_walk(joint, parts, structures, cap):
        while valid:
            low = valid & -valid
            valid ^= low
            i = low.bit_length() - 1
            table, asg = decode(i)
            yield fs, table, asg, [p.decode(v, i) for v in values]


def _run(walk, limit=None):
    """The first limit positions of a walk, with each table as its items in
    order, and the fields of the cap trip that ended it, if one did."""
    out = []
    try:
        for fs, table, asg, values in itertools.islice(walk, limit):
            out.append((fs, list(table.items()), asg, values))
    except CapExceeded as exc:
        return out, (str(exc), exc.cap, exc.limit, exc.predicted)
    return out, None


def _assert_same_walk(joint, parts, structures, cap=ASSIGNMENT_CAP, limit=None):
    got = _run(_positions(joint, parts, structures, cap), limit)
    want = _run(table_walk(joint, parts, structures, cap), limit)
    assert got == want
    return got


@pytest.mark.parametrize("system", ["qn4", "qn3", "qcw"])
def test_audit_matches_the_per_table_walk(system):
    """Field for field: the counts, and every failure in order with its
    tables string and value.  Max-algebra 5 walks every structure of the
    smaller budgets as well, in the same order."""
    for max_algebra in (1, 3, 5):
        report = audit_soundness(system, max_domain=1, max_algebra=max_algebra)
        assert report == walk_audit(system, max_domain=1, max_algebra=max_algebra)
    if system == "qn3":
        assert len(report.failures) == 1037


def test_audit_walks_each_group_once():
    """Instances with the same atoms and negated atom keys and no comega
    occurrence share one walk, one index per (group, structure), and the
    report is unchanged: qn4's 68 propositional instances fall into 10
    groups, and qcw's 50 into 7 groups and 7 instances with occurrence
    digits, each walked alone (one index per instance and structure before:
    204 and 400).  The four quantified instances take one index each per
    structure at domain size 1.  Each propositional instance is probed
    once, and no group again as a whole: qn4 at max-algebra 5 makes 68
    probes."""
    for system, max_algebra, indexes in (("qn4", 3, (10 + 4) * 3), ("qcw", 5, (14 + 4) * 8)):
        with _sweep_size(valuation_mod._SWEEP_SIZE) as built:
            report = audit_soundness(system, max_domain=1, max_algebra=max_algebra)
        assert len(built) == indexes
        assert report == walk_audit(system, max_domain=1, max_algebra=max_algebra)
    probes = []

    def probe(*args, **kwargs):
        probes.append(args[0])
        return valuation_mod._probe(*args, **kwargs)

    with mock.patch.object(proofs_mod, "_probe", probe), mock.patch.object(search_mod, "_probe", probe):
        audit_soundness("qn4", max_domain=1, max_algebra=5)
    assert len(probes) == 68


def test_audit_eval_cap_trips_alike():
    """A lowered eval_cap trips where one evaluation at a time would, with
    the same fields: inside the first instance, inside a later one, inside
    a later member of a group walked when its first member came up (the
    second N1 instance q -> p -> q, after p -> q -> p), and inside the
    quantified half; under qcw, 1000 lands inside ~~(p & q) -> p & q, an
    instance walked alone."""
    for system, logic in (("qn3", "n4"), ("qcw", "comega")):
        full = audit_soundness(system, max_domain=1, max_algebra=3).n_evaluations
        structures = [saturate(alg, logic) for alg in enumerate_heyting(3)]
        inst = parse_formula("p -> q -> p")
        first = sum(1 for _ in table_walk(inst, [(inst, ())], structures))
        for eval_cap in (0, 5, 200, 1000, first, first + 7, full - 1):
            trips = []
            for audit in (audit_soundness, walk_audit):
                with pytest.raises(CapExceeded) as exc:
                    audit(system, max_domain=1, max_algebra=3, eval_cap=eval_cap)
                trips.append((str(exc.value), exc.value.cap, exc.value.limit, exc.value.predicted))
            assert trips[0] == trips[1]
            # the fields are the whole audit's: the cap, and the total at the trip
            assert trips[0][2] == eval_cap and trips[0][3] > eval_cap


_SEARCH_FORMULAS = {
    "refute_formula": [
        (f, ())
        for f in ("~~p -> p", "p | ~p", "~(p & q) -> (~p | ~q)", "(p -> q) -> (~q -> ~p)")
        + ("~~~~p", "~~(p & q)", "~(~p | ~~q)")
    ],
    "refute_sequent": [
        ("~p", ("p -> q", "~q")),
        ("p", ("~~p",)),
        ("~(p & q)", ("~p | ~q",)),
        ("p | q", ("~~(p | q)",)),
        ("~(p & ~q)", ("~~(p | q)", "~(~p & q) | ~p")),
    ],
    "non_explosion": [(None, ())],
    "separate_n4_n3": [(None, ())],
}


@pytest.mark.parametrize("logic", ["n4", "comega"])
@pytest.mark.parametrize("kind", GOALS)
def test_search_matches_the_per_table_walk(kind, logic):
    """Every goal and logic: the same finding, or the same evaluation count
    on exhaustion, over the saturated families at max-algebra 2-5 and every
    family at 2-4."""
    budgets = [Budget(max_algebra=m) for m in (2, 3, 4, 5)]
    budgets += [Budget(max_algebra=m, families="all") for m in (2, 3, 4)]
    for formula, premises in _SEARCH_FORMULAS[kind]:
        for budget in budgets:
            goal = SearchGoal(
                kind,
                formula=parse_formula(formula) if formula else None,
                premises=tuple(parse_formula(text) for text in premises),
                logic=logic,
                budget=budget,
            )
            assert search(goal) == walk_search(goal)


def test_search_cap_trips_alike():
    """A lowered max_assignments trips on the first table over it, after
    every position before that table, with the same fields; a finding
    before that table wins."""
    for text, cap in (("~p & ~q & ~r -> r", 24), ("~r | ~q | ~p | (p & ~p)", 7), ("~p & ~q -> p", 4)):
        for logic, m in itertools.product(("n4", "comega"), (3, 5)):
            goal = SearchGoal("refute_formula", formula=parse_formula(text), logic=logic, budget=Budget(m, cap))
            outs = []
            for run in (search, walk_search):
                try:
                    outs.append(run(goal))
                except CapExceeded as exc:
                    outs.append((str(exc), exc.cap, exc.limit, exc.predicted))
            assert outs[0] == outs[1]


def test_walk_cap_trips_under_every_family():
    """Every n4 family of size <= 3, N_0 with several members included: a
    low cap trips on the first table or a later one, with the count of the
    negated atoms read up to the trip, or not at all, as the per-table walk
    does."""
    joint = parse_formula("~s | ~r | ~q | ~p")
    structures = [fs for alg in enumerate_heyting(3) for fs in search_mod._families(alg, "all", "n4")]
    trips = set()
    for fs, cap in itertools.product(structures, (2, 3, 5)):
        positions, trip = _assert_same_walk(joint, [(joint, ())], [fs], cap)
        trips.add((bool(positions), trip))
    assert len(trips) > 5


_COMEGA_FAMILIES_TO_4 = [fs for alg in enumerate_heyting(4) for fs in search_mod._families(alg, "all", "comega")]
# every family of size <= 4, the n4 ones of each algebra before its comega ones
_FAMILIES_TO_4 = [fs for alg in enumerate_heyting(4) for kind in ("n4", "comega") for fs in search_mod._families(alg, "all", kind)]

# comega negated compounds: alone, nested, under a double negation, and in
# premises and conclusion at once
_COMPOUND_SEQUENTS = [
    ("~~p -> p", ()),
    ("~(p & q) | (p & q)", ()),
    ("~~~~p", ()),
    ("~~(p & q)", ()),
    ("~(~p | ~~q)", ()),
    ("p | q", ("~~(p | q)",)),
    ("~(p & ~q)", ("~~(p | q)", "~(~p & q) | ~p")),
]


def _compound_sequent(conclusion, premises):
    goal = SearchGoal("refute_sequent", formula=parse_formula(conclusion), premises=tuple(map(parse_formula, premises)))
    return _sequent(goal)


@pytest.mark.parametrize("conclusion, premises", _COMPOUND_SEQUENTS)
def test_walk_matches_on_comega_compounds_over_every_family(conclusion, premises):
    """Every comega family of size <= 4: the occurrence digits give each
    table's assignments in the per-table order, with the same part
    values."""
    joint, parts = _compound_sequent(conclusion, premises)
    positions, trip = _assert_same_walk(joint, parts, _COMEGA_FAMILIES_TO_4)
    assert trip is None and positions


@pytest.mark.parametrize("sweep_size", [valuation_mod._SWEEP_SIZE, 4])
def test_walk_cap_trips_on_comega_compounds(sweep_size):
    """Low caps trip on negated atoms, on one atom combination's occurrence
    choices, and on a table's running count of assignments, on the same
    table and with the same fields as the per-table walk, over the
    saturated structures of size <= 4.  At sweep size 4 the walk splits
    into runs of a table or less, and the tables whose choice digits alone
    pass it are swept in runs of their own."""
    messages = set()
    with _sweep_size(sweep_size) as built:
        for (conclusion, premises), cap in itertools.product(_COMPOUND_SEQUENTS, (1, 2, 3, 5)):
            joint, parts = _compound_sequent(conclusion, premises)
            _, trip = _assert_same_walk(joint, parts, _STRUCTURES_TO_4, cap)
            if trip is not None:
                messages.add(trip[0].split(" ", 3)[3])
    assert messages == {"atom assignments", "occurrence choices", "assignments"}
    assert len(built) > 1 and all(index.size <= sweep_size for index in built)


def test_walk_sweeps_tables_past_the_sweep_size_in_runs():
    """A table whose padded occurrence digits alone pass the sweep size is
    swept in runs of its own (``_swept_table``, a ``valuation._Group``),
    more than one for some table; the rest of the walk still sweeps several
    tables at once."""
    joint, parts = _compound_sequent("~(p & ~q)", ("~~(p | q)", "~(~p & q) | ~p"))
    plain = search_mod._swept_table
    tables = []

    def swept(*args):
        tables.append(list(plain(*args)))
        yield from tables[-1]

    with _sweep_size(64) as built, mock.patch.object(search_mod, "_swept_table", swept):
        _assert_same_walk(joint, parts, _STRUCTURES_TO_4)
    assert built and any(len(runs) > 1 for runs in tables)


# negated atoms, comega compounds and double negations, alone and in a sequent
_SHARED_SEQUENTS = [
    ("~p | ~q", ()),
    ("~r | ~q | ~p", ()),
    ("~~p -> p", ()),
    ("~(p & q) | (p & q)", ()),
    ("~(~p | ~~q)", ()),
    ("p | q", ("~~(p | q)",)),
]


@pytest.mark.parametrize("sweep_size", [valuation_mod._SWEEP_SIZE, 8])
def test_walk_matches_with_every_family_at_once(sweep_size):
    """Every n4 and every comega family of size <= 4 in one list: the
    families of one algebra and kind share one index, each with the
    positions it admits, and match the per-family walk position for
    position, cap trips included, some of them in a family past the first
    of its algebra.  At sweep size 8 no union fits one run, and each
    family is walked alone."""
    later = set()
    with _sweep_size(sweep_size) as built:
        for (conclusion, premises), cap in itertools.product(_SHARED_SEQUENTS, (1, 2, 3, 5, 7, 24, ASSIGNMENT_CAP)):
            joint, parts = _compound_sequent(conclusion, premises)
            positions, trip = _assert_same_walk(joint, parts, _FAMILIES_TO_4, cap)
            if trip is not None and positions:
                last = positions[-1][0]
                later.add(any(fs is not last and fs.algebra is last.algebra for fs, *_ in positions))
    assert True in later
    assert all(index.size <= sweep_size for index in built)


def test_families_of_one_algebra_share_one_index():
    """comega ~~p -> p over every family at max-algebra 4 builds one index
    per algebra, 5 for its 55 families, and exhausts with the count of the
    per-family walk."""
    goal = SearchGoal("refute_formula", formula=parse_formula("~~p -> p"), logic="comega", budget=Budget(4, families="all"))
    with _sweep_size(valuation_mod._SWEEP_SIZE) as built:
        out = search(goal)
    assert len(built) == 5 and len(_COMEGA_FAMILIES_TO_4) == 55
    assert out == walk_search(goal)


def _formulas():
    leaves = st.sampled_from([Pred(a, ()) for a in "pqrs"])

    def grow(sub):
        return st.one_of(
            sub.map(Neg),
            st.tuples(sub, sub).map(lambda ab: And(*ab)),
            st.tuples(sub, sub).map(lambda ab: Or(*ab)),
            st.tuples(sub, sub).map(lambda ab: Imp(*ab)),
            st.tuples(sub, sub).map(lambda ab: iff(*ab)),
        )

    return st.recursive(leaves, grow, max_leaves=5)


@given(
    _formulas(),
    st.lists(_formulas(), max_size=2),
    st.sampled_from([ASSIGNMENT_CAP, 2, 6]),
    st.sampled_from([valuation_mod._SWEEP_SIZE, 8]),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_walk_matches_on_propositional_formulas(conclusion, premises, cap, sweep_size):
    """Up to four atoms, negated atoms and compounds and <->, with and
    without premises, over every saturated structure of size <= 4.  A
    small sweep size splits the tables into runs, and a small cap trips."""
    goal = SearchGoal("refute_sequent", formula=conclusion, premises=tuple(premises))
    joint, parts = _sequent(goal)
    with _sweep_size(sweep_size) as built:
        _assert_same_walk(joint, parts, _STRUCTURES_TO_4, cap)
    assert all(index.size <= sweep_size for index in built)


def test_walk_in_runs_over_six_atoms():
    """Six atoms over 5-element algebras: the sweep covers the innermost
    atom digits and every negation digit per run, and the outer atom digits
    loop.  With six negated atoms a run fixes the outer atoms' choice digits
    at their actual radices: the first run, at p = q = r = 0 (N_0 = {1}),
    holds 125 tables.  The compared positions span more than one run."""
    atoms = [Pred(a, ()) for a in "pqrstu"]
    two = Imp(And(Neg(atoms[2]), Neg(atoms[5])), Or(*atoms[:2]))
    for rest in atoms[2:]:
        two = Or(two, rest)
    six = Neg(atoms[0])
    for a in atoms[1:]:
        six = Or(six, Neg(a))
    # 0 < a < b, c < 1: the saturated N_b = {c, 1} and N_c = {b, 1}
    diamond_on_a = [alg for alg in enumerate_heyting(5) if alg.size == 5][1]
    # runs of 2025 and of 1331 valid positions
    for joint, fs, limit in ((two, saturate(chain(5), "comega"), 2100), (six, saturate(diamond_on_a, "n4"), 1400)):
        runs = list(itertools.islice(_table_walk(joint, [(joint, ())], [fs], ASSIGNMENT_CAP), 8))
        assert len(runs) == 8
        positions, trip = _assert_same_walk(joint, [(joint, ())], [fs], limit=limit)
        assert trip is None and len(positions) > runs[0][3].bit_count()


def test_quantifier_over_index_vector_predicates():
    """Predicate cells whose values are vectors over an index's tables: a
    choice-free quantifier loops over the scope instead of folding over
    names, and the value at every valid position is the value of one
    scalar evaluation under that position's table and negation choices."""
    sig = Signature(functions={"c": 0})
    phi = map_terms(
        parse_formula("(forall x . P(x) -> q) -> (exists y . ~P(y) & (P(c) | ~q))", sig),
        lambda t: NameConst(1) if isinstance(t, FuncApp) else t,
    )
    cells = [("P", (0,)), ("P", (1,)), "q"]
    keys = [("pred", "P", (0,)), ("pred", "P", (1,)), ("pred", "q")]
    for alg in enumerate_heyting(4):
        fs = saturate(alg, "n4")
        p = alg.planes
        index = AssignmentIndex(dict.fromkeys(keys, ()), p, keys, fs.negs)
        values = {cell: index.value(key) for cell, key in zip(cells, keys)}
        model = make_model(fs, NameStore(), 0, scope=(0, 1), prop_values=values)
        ctx = EvalContext(model)
        assert not ctx.folds
        vec = eval_sentence(phi, model, index, ctx)
        valid = index.valid
        while valid:
            low = valid & -valid
            valid ^= low
            i = low.bit_length() - 1
            table = dict(zip(cells, index.table(i)))
            scalar = make_model(fs, NameStore(), 0, scope=(0, 1), prop_values=table)
            assert EvalContext(scalar).folds
            assert p.decode(vec, i) == eval_sentence(phi, scalar, index.decode(i)), (alg.size, i)

