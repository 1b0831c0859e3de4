"""Brute-force countermodel search over small algebras and structures.

Goals: witnesses of non-explosion (a designated contradiction that does
not spread to an arbitrary atom), refutations of single formulas or
sequents, the explosion-axiom separation, and model-level evidence that
the negation is not congruential (equal values, distinct admissible
negation choices).

Search order is deterministic: algebras ascending by size, candidate
negation families lexicographically, atom values and choices
lexicographically; the first find is therefore the smallest in that
order.  The walk over tables and choices (``_table_walk``) evaluates
each part once per run of tables, as a vector over an
``AssignmentIndex`` whose digits are the atom values, the negated atoms'
choices and the comega occurrences' choices.  Every finding is
re-certified in a fresh evaluation context.  Exhaustion is reported from
the one ordered pass, since evaluation is deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .algebra import FiniteHeytingAlgebra, enumerate_heyting
from .errors import CapExceeded, PstError
from .fidel import FidelError, FStructure, saturate, validate_comega, validate_n4
from .names import NameStore
from .kernel import Planes, Vector
from .syntax import And, Formula, Neg, Pred, formula_to_text, prop_atoms
from . import valuation
from .valuation import (
    ASSIGNMENT_CAP,
    Assignment,
    AssignmentIndex,
    AtomKey,
    EvalContext,
    OccKey,
    SetModel,
    _blocks,
    _cap_exceeded,
    _first_trip,
    _Group,
    _lowest,
    _probe,
    _runs,
    enumerate_assignments,
    eval_sentence,
    make_model,
)

GOALS = ("non_explosion", "refute_formula", "refute_sequent", "separate_n4_n3")


class SearchError(PstError):
    pass


@dataclass(frozen=True)
class Budget:
    max_algebra: int = 3
    max_assignments: int = 20_000
    families: str = "saturated"  # or "all"


@dataclass(frozen=True)
class SearchGoal:
    kind: str
    formula: Formula | None = None
    premises: tuple[Formula, ...] = ()
    logic: str = "n4"
    budget: Budget = field(default_factory=Budget)


@dataclass(frozen=True)
class Finding:
    goal: str
    algebra_size: int
    structure: FStructure
    atom_values: tuple[tuple[str, int], ...]
    assignment_fingerprint: str
    values: tuple[tuple[str, int], ...]
    description: tuple[str, ...]


@dataclass(frozen=True)
class Exhausted:
    goal: str
    census: tuple[tuple[str, int], ...]

    def count(self, key: str) -> int:
        return dict(self.census).get(key, 0)


def _families(alg: FiniteHeytingAlgebra, which: str, kind: str) -> Iterator[FStructure]:
    """Candidate negation families for one algebra, deterministically."""
    if which == "saturated":
        yield saturate(alg, kind)
        return
    if which != "all":
        raise SearchError(f"unknown family selector {which!r}")
    yield from _valid_families(alg, kind)


def _valid_families(alg: FiniteHeytingAlgebra, kind: str) -> Iterator[FStructure]:
    """Every family that validate_n4 / validate_comega accepts, in the order
    of itertools.product over the non-empty subsets of each N_x in mask
    order, N_0 most significant.

    N_0, N_1, ... are assigned by backtracking, and a prefix is dropped as
    soon as a clause whose sets are all assigned fails.  Each clause is a
    bit-mask test on the assigned sets, filed under the highest element
    whose set it names.  Comega offers N_x only subsets of {y : x v y = 1}
    (excluded middle is per element).  The pruning is only a necessary
    condition: every complete family still goes through validate_*."""
    n = alg.size
    validate = validate_n4 if kind == "n4" else validate_comega
    members = [[e for e in range(n) if mask >> e & 1] for mask in range(1 << n)]
    clauses: list[list[Callable[[list[int]], bool]]] = [[] for _ in range(n)]
    for x in range(n):
        # x' in N_x needs x in N_{x'} (n4), or an x'' <= x in N_{x'} (comega)
        need = 1 << x if kind == "n4" else sum(1 << y for y in range(n) if alg.le(y, x))
        for xp in range(n):
            clauses[max(x, xp)].append(
                lambda f, x=x, xp=xp, need=need: not f[x] >> xp & 1 or f[xp] & need
            )
    if kind == "n4":
        choices = [range(1, 1 << n)] * n
        for x in range(n):
            for y in range(n):
                if x <= y:  # clause (ii) is symmetric in x and y
                    lo, hi = alg.meet_(x, y), alg.join_(x, y)
                    clauses[max(y, lo, hi)].append(
                        lambda f, x=x, y=y, lo=lo, hi=hi: all(
                            f[lo] >> alg.join_(a, b) & 1 and f[hi] >> alg.meet_(a, b) & 1
                            for a in members[f[x]]
                            for b in members[f[y]]
                        )
                    )
                to = alg.imp_(x, y)
                clauses[max(y, to)].append(
                    lambda f, x=x, y=y, to=to: all(
                        f[to] >> alg.meet_(x, b) & 1 for b in members[f[y]]
                    )
                )
    else:
        choices = [
            [m for m in range(1, 1 << n) if all(alg.join_(x, y) == alg.top for y in members[m])]
            for x in range(n)
        ]
    fam = [0] * n

    def extend(d: int) -> Iterator[FStructure]:
        if d == n:
            try:
                yield validate(alg, [members[m] for m in fam])
            except FidelError:
                pass
            return
        for mask in choices[d]:
            fam[d] = mask
            if all(clause(fam) for clause in clauses[d]):
                yield from extend(d + 1)

    return extend(0)


def _algebras(budget: Budget) -> list[FiniteHeytingAlgebra]:
    """Every algebra within budget.  A budget that admits no algebra is an
    error, not a search that exhausts nothing."""
    if budget.max_algebra < 1:
        raise SearchError(f"max_algebra must be at least 1, got {budget.max_algebra}")
    return list(enumerate_heyting(budget.max_algebra))


def _prop_model(fs: FStructure, values: Mapping[str | tuple, Vector], scope: Sequence[int] = ()) -> SetModel:
    return make_model(fs, NameStore(), 0, scope=scope, prop_values=values)


def _cell(key: AtomKey) -> str | tuple:
    """The model's table entry of a predicate key: sym, or (sym, args)."""
    return key[1] if len(key) == 2 else key[1:]


def _value(fs: FStructure, key: AtomKey, table: Mapping[str | tuple, int]) -> int | None:
    """The value of a negated key where table fixes it, else None; a key
    that is no predicate is bot."""
    return table.get(_cell(key)) if key[0] == "pred" else fs.algebra.bottom


def _options(fs: FStructure, keys: list[AtomKey], table: Mapping[str | tuple, int], cap: float) -> dict[AtomKey, tuple[int, ...]]:
    """The choices of each negated key at a table that fixes every atom.
    The cap trips as a probe's does: on the option counts multiplied in
    reading order."""
    options: dict[AtomKey, tuple[int, ...]] = {}
    total = 1
    for key in keys:
        options[key] = fs.negs[_value(fs, key, table)]
        total *= len(options[key])
        if total > cap:
            raise _cap_exceeded("atom assignments", cap, total)
    return options


# (structure, planes, part values, valid positions, decode): decode(i) is the
# atom table and the negation assignment at position i
_Run = tuple[FStructure, Planes, list[Vector], int, Callable[[int], tuple[dict, Assignment]]]


def _table_walk(
    joint: Formula,
    parts: Sequence[tuple[Formula, tuple[int, ...]]],
    structures: Iterable[FStructure],
    cap: int = ASSIGNMENT_CAP,
) -> Iterator[_Run]:
    """The values of the parts of joint for every structure given, every
    table of values of the propositional atoms of joint (lexicographically
    over the sorted atoms) and every negation assignment of joint, as
    vectors over runs of positions in that order.  Each part is evaluated
    at its position in joint, so one assignment serves all of them.

    Which atoms are negated, and where comega chooses per occurrence, does
    not depend on the structure or the table: one probe per logic finds
    them.  The cap bounds each table's assignments: it trips on the first
    table over it, after the positions before that table."""
    names = sorted(prop_atoms(joint))
    atoms = [("pred", a) for a in names]
    probed: dict[str, tuple[list[AtomKey], list[OccKey]]] = {}
    for fs in structures:
        if fs.kind not in probed:
            first = _prop_model(fs, dict.fromkeys(names, 0))
            probe = _probe((joint, {}, (), (), ()), first, EvalContext(first))
            probed[fs.kind] = list(probe.options), probe.occs
        yield from _index_walk(parts, fs, atoms, *probed[fs.kind], cap, ())


def _index_walk(
    parts: Sequence[tuple[Formula, tuple[int, ...]]],
    fs: FStructure,
    atoms: list[AtomKey],
    keys: list[AtomKey],
    occs: list[OccKey],
    cap: float,
    scope: Sequence[int],
) -> Iterator[_Run]:
    """The walk over every table of the atoms (predicate keys, the first
    most significant) in runs, one ``AssignmentIndex`` per run: the digits
    of its atom values, then of the negated keys' choices (keys, in reading
    order) and of the comega occurrences' choices (occs, in evaluation
    order); one vector evaluation of each part at its path, with the
    quantifiers ranging over scope, covers the run.  A run's decode names
    each atom by its table entry (``_cell``)."""
    alg = fs.algebra
    n = alg.size
    negs = fs.negs
    longest = max(map(len, negs))
    cells = [_cell(key) for key in atoms]

    def span(prefix: tuple[int, ...]) -> int:
        """The positions of a run that fixes the atom values of prefix."""
        fixed = dict(zip(cells, prefix))
        values = (_value(fs, key, fixed) for key in keys)
        per = longest ** len(occs) * math.prod(longest if v is None else len(negs[v]) for v in values)
        return n ** (len(atoms) - len(prefix)) * per

    for outer in _runs(lambda prefix: range(n) if len(prefix) < len(atoms) else (), span):
        fixed = dict(zip(cells, outer))
        inner_keys = atoms[len(outer) :]
        if not inner_keys and span(outer) > valuation._SWEEP_SIZE:
            yield from _swept_table(parts, fs, keys, fixed, cap, scope)
            continue
        values = {key: _value(fs, key, fixed) for key in keys}
        options = {key: () if v is None else negs[v] for key, v in values.items()}
        index = AssignmentIndex(options, alg.planes, inner_keys, negs, [(key, range(longest)) for key in occs])

        def decode(i: int, index: AssignmentIndex = index, outer: tuple[int, ...] = outer):
            return dict(zip(cells, outer + index.table(i))), index.decode(i)

        model = _prop_model(fs, {**fixed, **{_cell(key): index.value(key) for key in inner_keys}}, scope)
        ctx = EvalContext(model)
        vectors = [eval_sentence(f, model, index, ctx, path) for f, path in parts]
        valid = index.valid
        per = index.size // n ** len(inner_keys)  # positions per table
        trip = None
        if per > cap:
            trip = _table_trip(keys, fs, fixed, cells[len(outer) :], valid, per, longest ** len(occs), cap)
        if trip is not None:
            valid &= (1 << trip[0] * per) - 1
        if valid:
            yield fs, alg.planes, vectors, valid, decode
        if trip is not None:
            raise trip[1]


def _table_trip(
    keys: list[AtomKey],
    fs: FStructure,
    fixed: Mapping[str | tuple, int],
    inner_cells: list[str | tuple],
    valid: int,
    per: int,
    block: int,
    cap: float,
) -> tuple[int, CapExceeded] | None:
    """(table number in the run, error) for the first table whose
    assignments pass the cap, or None, checked as a per-table enumeration
    checks them: the negated atoms' option counts multiplied in reading
    order (``_options``), then the count of each atom combination's
    occurrence choices (a block of positions each) and the running count of
    assignments (``_first_trip``).  Under a comega family every choice
    extends, so a combination's count is the largest of the counts such an
    enumeration builds for it."""
    for t, values in enumerate(itertools.product(range(fs.algebra.size), repeat=len(inner_cells))):
        try:
            _options(fs, keys, {**fixed, **dict(zip(inner_cells, values))}, cap)
        except CapExceeded as trip:
            return t, trip
        rows = valid >> t * per & (1 << per) - 1
        trip = _first_trip(_blocks(rows, per, block), cap) if rows.bit_count() > cap else None
        if trip is not None:
            return t, trip
    return None


def _swept_table(
    parts: Sequence[tuple[Formula, tuple[int, ...]]],
    fs: FStructure,
    keys: list[AtomKey],
    table: dict[str | tuple, int],
    cap: float,
    scope: Sequence[int],
) -> Iterator[_Run]:
    """One table whose padded choice digits alone pass the sweep size,
    swept in runs of its own (``valuation._Group``): the parts are its
    instances, taken in evaluation order, the order of their paths.  The
    cap trips before any of the table's positions is yielded."""
    order = sorted(range(len(parts)), key=lambda k: parts[k][1])
    model = _prop_model(fs, table, scope)
    ctx = EvalContext(model)
    instances = [(parts[k][0], {}, (), parts[k][1], (k,)) for k in order]
    group = _Group(instances, _options(fs, keys, table, cap), model, ctx, cap)
    trip = _first_trip(group.counts, cap)
    if trip is not None:
        raise trip
    for index, values in group.runs:

        def decode(i: int, index: AssignmentIndex = index) -> tuple[dict, Assignment]:
            return table, index.decode(i)

        by_part = dict(zip(order, values))
        yield fs, fs.algebra.planes, [by_part[k] for k in range(len(parts))], index.valid, decode


def search(goal: SearchGoal) -> Finding | Exhausted:
    """Run the requested goal within budget; deterministic."""
    if goal.kind not in GOALS:
        raise SearchError(f"unknown goal {goal.kind!r}")
    out = _search_sequent(goal)
    if isinstance(out, Finding):
        _recertify(out, goal)
    return out


def _sequent(goal: SearchGoal) -> tuple[Formula, list[tuple[Formula, tuple[int, ...]]]]:
    """The joint sentence premise_n & (... & (premise_1 & conclusion)) whose
    assignments a search enumerates, and the premises and then the
    conclusion with their positions in it.  non_explosion is the sequent
    p, ~p |- q; a refute_formula or separate_n4_n3 goal is a sequent
    without premises."""
    premises: tuple[Formula, ...] = ()
    if goal.premises and goal.kind != "refute_sequent":
        raise SearchError(f"{goal.kind} takes no premises; use refute_sequent")
    if goal.kind == "non_explosion":
        p = Pred("p", ())
        premises, conclusion = (p, Neg(p)), Pred("q", ())
    elif goal.kind == "separate_n4_n3":
        from .proofs import SCHEMAS, _instantiate

        conclusion = _instantiate(
            SCHEMAS["N14"].template,
            {"alpha": Pred("p", ()), "beta": Pred("q", ())},
        )
    elif goal.formula is None:
        if goal.kind == "refute_sequent":
            raise SearchError("refute_sequent needs a conclusion formula")
        raise SearchError("refute_formula needs a formula")
    else:
        conclusion = goal.formula
        if goal.kind == "refute_sequent":
            premises = goal.premises
    joint = conclusion
    parts = [(conclusion, ())]
    for g in premises:
        joint = And(g, joint)
        parts = [(f, (1,) + path) for f, path in parts] + [(g, (0,))]
    return joint, parts[1:] + parts[:1]


def _search_sequent(goal: SearchGoal) -> Finding | Exhausted:
    """Premises all top, conclusion below top, under one joint assignment."""
    algebras = _algebras(goal.budget)
    joint, parts = _sequent(goal)
    structures = (
        fs for alg in algebras for fs in _families(alg, goal.budget.families, goal.logic)
    )
    evaluations = 0
    for fs, p, vals, valid, decode in _table_walk(joint, parts, structures, goal.budget.max_assignments):
        *prem_vals, concl = vals
        hits = valid & p.exceeds(p.top, concl)
        for v in prem_vals:
            hits &= ~p.exceeds(p.top, v)
        if not hits:
            evaluations += valid.bit_count()
            continue
        i = _lowest(hits)
        table, asg = decode(i)
        top = fs.algebra.top
        concl = p.decode(concl, i)
        values = tuple((formula_to_text(f), p.decode(v, i)) for (f, _), v in zip(parts, vals))
        if goal.kind == "non_explosion":
            description: tuple[str, ...] = (
                f"||p|| = ||~p|| = {top} (top) while ||q|| = {concl} < top;",
                "the contradictory pair {p, ~p} holds without q following",
            )
        elif goal.kind == "refute_sequent":
            description = (f"premises all top, conclusion {concl} < top;",)
        else:
            description = (f"||{values[0][0]}|| = {concl} < top = {top}",)
        return Finding(
            goal=goal.kind,
            algebra_size=fs.algebra.size,
            structure=fs,
            atom_values=tuple(sorted(table.items())),
            assignment_fingerprint=asg.fingerprint(),
            values=values,
            description=description,
        )
    return Exhausted(goal.kind, (("evaluations", evaluations),))


def _recertify(finding: Finding, goal: SearchGoal) -> None:
    """Re-evaluate every certificate value in a fresh context, under the
    exact assignment the finding names (a sequent's premises and conclusion
    under that one assignment); findings that fail re-certification are a
    bug, not a result."""
    model = _prop_model(finding.structure, dict(finding.atom_values))
    ctx = EvalContext(model)
    sentence, parts = _sequent(goal)
    named = [
        a
        for a in enumerate_assignments(sentence, model, ctx, goal.budget.max_assignments)
        if a.fingerprint() == finding.assignment_fingerprint
    ]
    if not named:
        raise SearchError(
            f"certificate assignment {finding.assignment_fingerprint} does not re-verify"
        )
    if [text for text, _ in finding.values] != [formula_to_text(f) for f, _ in parts]:
        raise SearchError("certificate values name other formulas than the goal")
    for (text, claimed), (phi, path) in zip(finding.values, parts):
        if eval_sentence(phi, model, named[0], ctx, path) != claimed:
            raise SearchError(f"certificate value for {text} does not re-verify")


# --- congruence probe -------------------------------------------------------------


def congruence_probe(
    budget: Budget = Budget(),
    structures: Sequence[FStructure] | None = None,
    logic: str = "comega",
) -> Finding | Exhausted:
    """Hunt for two atoms with one truth value but distinct admissible
    negation values: the negation is then not a function of the value."""
    census = {"structures": 0, "values": 0}
    if structures is None:
        pool: Iterator[FStructure] = (
            fs
            for alg in _algebras(budget)
            for fs in _families(alg, budget.families, logic)
        )
    else:
        pool = iter(structures)
    for fs in pool:
        census["structures"] += 1
        alg = fs.algebra
        for x in range(alg.size):
            census["values"] += 1
            if len(fs.negs[x]) >= 2:
                c1, c2 = fs.negs[x][0], fs.negs[x][1]
                return Finding(
                    goal="congruence_probe",
                    algebra_size=alg.size,
                    structure=fs,
                    atom_values=(("p", x), ("q", x)),
                    assignment_fingerprint="n/a",
                    values=(("~p", c1), ("~q", c2)),
                    description=(
                        f"||p|| = ||q|| = {x} yet ~p may take {c1} and ~q {c2};",
                        "negation is not determined by the truth value",
                    ),
                )
    return Exhausted("congruence_probe", tuple(sorted(census.items())))
