"""Classes of indiscernible names (||u = v|| = top): the substitution
lemmas they rest on, the kernel's split into classes, the class folds
against the name-level folds they replaced (``reference.name_level``), and
the grids probed by class of rows against the row-by-row probe."""

import contextlib
import io
import itertools
import shlex
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import Reference, name_level

from pst import decompose
from pst.algebra import boolean_algebra, chain, enumerate_heyting, format_algebra_text
from pst.axioms import check_pairing, check_powerset, check_separation
from pst.cli import main
from pst.errors import CapExceeded, PstError
from pst.fidel import format_fstructure_text, saturate
from pst.kernel import EqMemKernel
from pst.names import NameStore
from pst.syntax import And, Eq, Exists, Forall, Imp, Mem, NameConst, Neg, Or, Pred, Var, formula_to_text, parse_formula
from pst.valuation import EvalContext, Verdict, check_valid, eval_sentence, make_model

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402  (the benchmark's templates, read only)

x, y = Var("x"), Var("y")


# --- the lemmas -----------------------------------------------------------------------


@pytest.mark.parametrize("alg", enumerate_heyting(4), ids=lambda a: f"size{a.size}")
@pytest.mark.parametrize("rank", [1, 2])
def test_substitution_lemmas_and_transitivity(alg, rank):
    """||u = v|| ^ ||u in w|| <= ||v in w||, ||u = v|| ^ ||w in u|| <=
    ||w in v|| and ||u = v|| ^ ||v = w|| <= ||u = w||, name by name."""
    model = make_model(alg, NameStore(), rank)
    ref = Reference(model)
    le, meet = alg.le, alg.meet_
    for u, v, w in itertools.product(model.scope, repeat=3):
        e = ref.eq(u, v)
        assert le(meet(e, ref.mem(u, w)), ref.mem(v, w)), (u, v, w)
        assert le(meet(e, ref.mem(w, u)), ref.mem(w, v)), (u, v, w)
        assert le(meet(e, ref.eq(v, w)), ref.eq(u, w)), (u, v, w)


# --- the classes ------------------------------------------------------------------------

_CLASS_ALGEBRAS = [("chain2", chain(2)), ("chain3", chain(3)), ("b4", boolean_algebra(2)), ("chain4", chain(4))]


@pytest.mark.parametrize("alg", [a for _, a in _CLASS_ALGEBRAS], ids=[s for s, _ in _CLASS_ALGEBRAS])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_member_rows_split_the_names_into_classes_of_equal_eq_rows(alg, rank):
    """The kernel's classes are the classes of equal eq rows, in scope
    order, and each class fixes the member row and the member column."""
    model = make_model(alg, NameStore(), rank)
    scope = model.scope
    mask, need = sum(1 << i for i in scope), max(scope) + 1
    plain = EqMemKernel(alg.planes, model.store)

    def row(vec):
        return tuple(plane & mask for plane in vec)

    groups: dict[tuple, list[int]] = {}
    for u in scope:
        groups.setdefault(row(plain.eqrow(u, need)), []).append(u)
    reps = EqMemKernel(alg.planes, model.store).classes(scope)
    assert reps == [members[0] for members in groups.values()]
    for members in groups.values():
        assert len({row(plain.memrow(u, need)) for u in members}) == 1
        assert len({row(plain.memcol(u, need)) for u in members}) == 1


def test_shared_rows_are_exact_at_every_id():
    """After the split, a name reads its class's rows; they stay exact at
    names made later (a witness of every scope pair and a one-entry name of
    every scope name)."""
    model = make_model(chain(3), NameStore(), 3)
    ctx = EvalContext(model)
    reps = ctx.classes(model).ids
    assert len(reps) == 15 and reps[0] == model.scope[0]
    store = model.store
    picks = model.scope[::17]
    made = [store.mk_name([(u, 2), (v, 1)]) for u in picks for v in picks if u != v] + [store.mk_name([(u, 1)]) for u in picks]
    ref = Reference(model)
    kernel = ctx.kernel
    for u in picks:
        for v in [*picks, *made]:
            assert kernel.eq(u, v) == ref.eq(u, v), (u, v)
            assert kernel.mem(u, v) == ref.mem(u, v), (u, v)
            assert kernel.mem(v, u) == ref.mem(v, u), (u, v)


def test_predicate_atoms_range_over_every_name():
    """A predicate table need not respect the classes: over the 2-chain at
    rank 2 the first name is indiscernible from a later one, yet P holds of
    the first and not of the later, so a fold whose body reads P ranges
    over every name."""
    alg = chain(2)
    plain = make_model(alg, NameStore(), 2)
    store, scope = plain.store, plain.scope
    later = next(v for v in scope[1:] if Reference(plain).eq(scope[0], v) == alg.top)
    table = {("P", (nid,)): alg.bottom if nid == later else alg.top for nid in scope}
    model = make_model(alg, store, 2, prop_values=table)
    p = Pred("P", (x,))
    for phi in (Forall("x", p), Forall("y", Forall("x", Or(p, Mem(y, x)))), Exists("y", Forall("x", And(Eq(y, y), p)))):
        assert eval_sentence(phi, model) == alg.bottom, formula_to_text(phi)


def test_single_target_checks_compute_no_classes():
    for structure in (chain(3), saturate(chain(3), "n4")):
        model = make_model(structure, NameStore(), 3)
        ctx = EvalContext(model)
        assert check_pairing(model, 3, 200, ctx=ctx).valid
        assert check_powerset(model, 7, ctx=ctx).valid
        check_separation(model, parse_formula("~(x in x)"), "x", u=100, ctx=ctx)
        assert ctx.domain(model.scope).classes is None and not ctx.kernel._rep


def test_all_target_pairing_makes_at_most_one_name():
    model = make_model(saturate(boolean_algebra(2), "n4"), NameStore(), 3)
    size = len(model.store)
    report = check_pairing(model)
    assert report.valid
    assert len(model.store) - size <= 1
    assert report.witnesses == (("w", model.store.mk_name([(0, 3)])),)


# --- the class folds against the name-level folds --------------------------------------

_TEMPLATES = {key: t for key, t in checks.TEMPLATES.items() if t.argv.split()[0] in ("eval", "leibniz", "axiom")}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _differential(path, structure, rank):
    scope = make_model(structure, NameStore(), rank).scope
    params = {"model": path, "rank": rank, "u": scope[-1], "v": scope[0], "k": scope[len(scope) // 2]}
    for key, template in _TEMPLATES.items():
        argv = ["--format", "human", *shlex.split(template.argv.format(**params))]
        got = _run(argv)
        with name_level():
            want = _run(argv)
        assert got == want, (key, argv)


def _model_files(tmp_path, alg, kinds):
    out = []
    for kind in kinds:
        path = tmp_path / f"{kind}.model"
        if kind == "algebra":
            path.write_text(format_algebra_text("a", alg))
            out.append((str(path), alg))
        else:
            fs = saturate(alg, kind)
            path.write_text(format_fstructure_text("f", fs))
            out.append((str(path), fs))
    return out


@pytest.mark.parametrize("alg", enumerate_heyting(5), ids=lambda a: f"size{a.size}")
def test_class_folds_match_name_level_folds(tmp_path, alg):
    """Every eval, leibniz and axiom-check template of the benchmark, in
    every mode, at ranks 1 and 2: the same exit code and output."""
    for path, structure in _model_files(tmp_path, alg, ("algebra", "comega", "n4")):
        for rank in (1, 2):
            _differential(path, structure, rank)


@pytest.mark.parametrize("kind", ["algebra", "comega", "n4"])
def test_class_folds_match_name_level_folds_at_rank_three(tmp_path, kind):
    ((path, structure),) = _model_files(tmp_path, chain(3), (kind,))
    _differential(path, structure, 3)


def _choice_free_formulas(names, negation):
    leaves = st.sampled_from(["x", "y", "z"]).map(Var) | st.sampled_from(names).map(NameConst)
    atoms = st.builds(Eq, leaves, leaves) | st.builds(Mem, leaves, leaves)
    var = st.sampled_from(["x", "y", "z"])

    def grow(sub):
        out = (
            st.builds(And, sub, sub)
            | st.builds(Or, sub, sub)
            | st.builds(Imp, sub, sub)
            | st.builds(Forall, var, sub)
            | st.builds(Exists, var, sub)
            | st.builds(lambda v, t, b: Forall(v, Imp(Mem(Var(v), t), b)), var, leaves, sub)
        )
        return out | st.builds(Neg, sub) if negation else out

    def close(phi):
        for v in ("z", "y", "x"):
            phi = Exists(v, phi) if v == "y" else Forall(v, phi)
        return phi

    return st.recursive(atoms, grow, max_leaves=5).map(close)


def _drawn_models():
    out = []
    for structure, rank in (
        (chain(2), 3),
        (chain(3), 2),
        (boolean_algebra(2), 2),
        (saturate(chain(3), "comega"), 2),
        (saturate(chain(4), "n4"), 2),
    ):
        model = make_model(structure, NameStore(), rank)
        out += [model, model.with_flags(bounded_opt=True)]
    return out


@pytest.mark.parametrize("model", _drawn_models(), ids=lambda m: f"{m.mode}-{m.algebra.size}-r{m.rank_bound}-{m.bounded_opt}")
def test_class_folds_match_name_level_folds_on_drawn_formulas(model):
    """Choice-free sentences (negation-free under comega and n4), with
    bounded quantifiers read as bounded where the model says so."""
    names = [model.scope[0], model.scope[-1]]

    @given(_choice_free_formulas(names, model.mode in ("boolean", "heyting")))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def check(phi):
        with name_level():
            want = eval_sentence(phi, model)
        assert eval_sentence(phi, model) == want, formula_to_text(phi)

    check()


# --- grids probed by class of rows --------------------------------------------------------


def _row_by_row():
    """Every name a class of its own in the kernel while the block runs: each
    grid row folded, and its positions split, on its own."""
    return mock.patch.object(EqMemKernel, "classes", lambda self, ids: list(ids))


# the eval sentences of the benchmark's witness-negation templates, and grids
# whose keys or reads hold a constant or a name bound outside the grid
_GRID_SENTENCES = [
    checks.EQ_LEM,
    checks.CONTRA,
    checks.DNEG_EQ,
    "forall x . (x eq x | ~(x eq x))",
    "forall x . forall y . (~~(x in y) -> x in y)",
    "forall x . forall y . (~(x in y & y in x) <-> (~(x in y) | ~(y in x)))",
    "forall x . forall y . (x in y | ~(x in y))",
    "forall x . forall y . (~(x in y) | y eq #1)",
    "forall x . forall y . (~(y in x) | ~(x eq #0))",
    "forall z . forall x . forall y . (~(x in y) | z in x)",
    "forall x . forall y . (x in y | ~(y in #0))",
    "forall z . forall x . forall y . (x in y | ~(y in z))",
    "exists x . exists y . (x in y & ~(y eq x))",
]
_GRID_STRUCTURES = [saturate(alg, kind) for alg in enumerate_heyting(5) for kind in ("comega", "n4")]


def _verdicts(structure, rank, texts):
    out = []
    for text in texts:
        for quant in ("all_assignments", "some_assignment"):
            try:
                out.append(check_valid(parse_formula(text), make_model(structure, NameStore(), rank), quant))
            except CapExceeded as exc:
                out.append((str(exc), exc.cap, exc.limit, exc.predicted))
            except PstError as exc:  # a constant past the names of a small scope
                out.append((type(exc), str(exc)))
    # the witnesses and falsifiers, collected while the patch (if any) holds
    return [(v, v.witness and v.witness.atoms, v.falsifier and v.falsifier.atoms) if isinstance(v, Verdict) else v for v in out]


@pytest.mark.parametrize("rank", [1, 2])
def test_grids_by_class_match_the_row_by_row_probe(rank):
    """Every saturated structure of size <= 5: whole verdicts (values,
    assignment count, witness and falsifier) or the same cap trip."""
    for structure in _GRID_STRUCTURES:
        got = _verdicts(structure, rank, _GRID_SENTENCES)
        with _row_by_row():
            want = _verdicts(structure, rank, _GRID_SENTENCES)
        assert got == want, (structure.kind, structure.algebra.size)


@pytest.mark.parametrize("kind", ["comega", "n4"])
def test_grids_by_class_match_the_row_by_row_probe_at_rank_three(kind):
    structure = saturate(chain(3), kind)
    texts = [checks.EQ_LEM, checks.CONTRA, "forall x . forall y . (~(x in y) | y eq #1)"]
    got = _verdicts(structure, 3, texts)
    with _row_by_row():
        want = _verdicts(structure, 3, texts)
    assert got == want
    assert sum(isinstance(v, tuple) and isinstance(v[0], Verdict) for v in got) >= 4


def test_a_grid_folds_each_class_of_rows_once():
    """n4 eq-LEM on the saturated 3-chain at rank 3: one row fold and one
    column fold per class of names, not one each per row (511)."""
    model = make_model(saturate(chain(3), "n4"), NameStore(), 3)
    classes = len(EvalContext(model).classes(model).ids)
    fold = decompose._Grid._fold
    calls = []

    def counted(self, *args):
        calls.append(args)
        return fold(self, *args)

    with mock.patch.object(decompose._Grid, "_fold", counted):
        verdict = check_valid(parse_formula(checks.EQ_LEM), model)
    assert verdict.valid and classes == 15
    assert 0 < len(calls) <= 2 * classes
