"""Truth-value evaluation over algebra-valued and F-structure-valued models.

Modes:

* ``boolean`` / ``heyting`` - negation is the pseudo-complement x -> 0.
* ``comega``  - every negation occurrence is a non-deterministic choice
  from N_{value of the body}, with double negations forced below the
  unnegated value; choices at atoms are functional (one value per ground
  atom), choices at compound bodies are per-occurrence.
* ``n4``      - negation over compounds is defined structurally (De Morgan
  for meet/join, a & ~b for implications, cancellation for double
  negation); only negated atoms are non-deterministic choices.

Class quantifiers are truncated to an explicit scope of names; every
verdict records the rank bound and is rank-relative.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Container, Iterable, Iterator, Mapping, Sequence

from .algebra import FiniteHeytingAlgebra, _lowest, check_refinable
from .errors import CapExceeded, PstError
from .fidel import FStructure, find_algebra_embedding, preserves_heyting
from .kernel import EqMemKernel, Planes, Vector, _bits
from .names import NameStore, all_hf_sets, enumerate_universe
from .syntax import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    Formula,
    Imp,
    Mem,
    NameConst,
    Neg,
    Or,
    Pred,
    Term,
    Var,
    bounded_parts,
    formula_to_text,
    free_vars,
    iff_sides,
    is_negation_free,
    is_restricted,
    negates_atoms_only,
    nnf_n4,
    subformulas,
)

MODES = ("boolean", "heyting", "comega", "n4")
ASSIGNMENT_CAP = 50_000
KEY_CAP = 1 << 18  # negated ground atoms read by one sentence's instances, at least one each


class EvalError(PstError):
    pass


class UncoveredNegation(EvalError):
    def __init__(self, what: str):
        super().__init__(f"negation assignment does not cover {what}")
        self.what = what


class InvalidAssignment(EvalError):
    pass


class NotRestricted(EvalError):
    pass


class NotNegationFree(EvalError):
    pass


class NotRefinable(EvalError):
    pass


@dataclass(frozen=True)
class SetModel:
    """A name universe with an algebra (or F-structure) and a quantifier
    scope.  Immutable; evaluation state lives in EvalContext."""

    algebra: FiniteHeytingAlgebra
    structure: FStructure | None
    store: NameStore
    rank_bound: int
    mode: str
    scope: tuple[int, ...]
    bounded_opt: bool = False
    # predicate table: sym -> value for a 0-ary atom, (sym, args) -> value
    # for an atom over the name ids args; a value is an element, or a
    # vector over the tables of an AssignmentIndex
    prop_values: Mapping[str | tuple, Vector] = field(default_factory=dict)

    def neg_options(self, value: int) -> tuple[int, ...]:
        if self.structure is None:
            return (self.algebra.imp_(value, self.algebra.bottom),)
        return self.structure.negs[value]

    def with_flags(self, bounded_opt: bool | None = None) -> "SetModel":
        return SetModel(
            self.algebra,
            self.structure,
            self.store,
            self.rank_bound,
            self.mode,
            self.scope,
            self.bounded_opt if bounded_opt is None else bounded_opt,
            self.prop_values,
        )


def make_model(
    structure: FStructure | FiniteHeytingAlgebra,
    store: NameStore,
    rank_bound: int,
    mode: str | None = None,
    scope: Sequence[int] | None = None,
    bounded_opt: bool = False,
    prop_values: Mapping[str | tuple, Vector] | None = None,
) -> SetModel:
    """Build a model; the scope defaults to all names of rank <= bound."""
    if isinstance(structure, FStructure):
        fs: FStructure | None = structure
        algebra = structure.algebra
        inferred = structure.kind
    else:
        fs = None
        algebra = structure
        inferred = "boolean" if structure.boolean_flag else "heyting"
    mode = mode or inferred
    if mode not in MODES:
        raise EvalError(f"unknown mode {mode!r}")
    if mode in ("comega", "n4"):
        if fs is None:
            raise EvalError(f"mode {mode!r} needs an F-structure")
        if fs.kind != mode:
            raise EvalError(f"structure kind {fs.kind!r} inconsistent with mode {mode!r}")
    if mode == "boolean" and not algebra.boolean_flag:
        raise EvalError("boolean mode over a non-Boolean algebra")
    if scope is None:
        scope = enumerate_universe(store, algebra, rank_bound)
    return SetModel(
        algebra,
        fs,
        store,
        rank_bound,
        mode,
        tuple(scope),
        bounded_opt,
        dict(prop_values or {}),
    )


# --- negation assignments ------------------------------------------------------

AtomKey = tuple
OccKey = tuple


@dataclass(frozen=True, eq=False)
class Assignment:
    """A concrete resolution of the non-deterministic negation choices.
    Two assignments are equal when they make the same choices."""

    atoms: tuple[tuple[AtomKey, int], ...] = ()
    occs: tuple[tuple[OccKey, int], ...] = ()
    # every choice by its key, built on the first lookup
    _choices: dict | None = field(default=None, init=False, repr=False)

    def _lookup(self) -> dict:
        if self._choices is None:
            object.__setattr__(self, "_choices", {**dict(self.atoms), **dict(self.occs)})
        return self._choices

    def atom(self, key: AtomKey) -> int | None:
        return self._lookup().get(key)

    def occ(self, key: OccKey) -> int | None:
        return self._lookup().get(key)

    def fingerprint(self) -> str:
        if not self.atoms and not self.occs:
            return "none"
        blob = repr((tuple(sorted(self.atoms)), tuple(sorted(self.occs))))
        return hashlib.sha1(blob.encode()).hexdigest()[:12]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self.atoms == other.atoms and self.occs == other.occs

    def __hash__(self) -> int:
        return hash((self.atoms, self.occs))


EMPTY_ASSIGNMENT = Assignment()


class _Deferred(Assignment):
    """An assignment whose choices are collected on first use: the witness
    of a decomposed sentence names every key, and most verdicts print only
    one of witness and falsifier."""

    def __init__(self, collect: Callable[[], tuple[tuple, tuple]]):
        object.__setattr__(self, "_collect", collect)
        object.__setattr__(self, "_choices", None)

    def _made(self) -> tuple[tuple, tuple]:
        if self._collect is not None:
            object.__setattr__(self, "_made_choices", self._collect())
            object.__setattr__(self, "_collect", None)
        return self._made_choices

    @property
    def atoms(self) -> tuple:
        return self._made()[0]

    @property
    def occs(self) -> tuple:
        return self._made()[1]

    def __repr__(self) -> str:
        return repr(Assignment(self.atoms, self.occs))


def _digit_masks(stride: int, radix: int, size: int) -> list[int]:
    """The positions, of size, whose digit of the given stride and radix is
    d, for each d: runs of stride positions, one every period (the run at
    digit 0 repeated by doubling, shifted by d strides)."""
    zero = (1 << stride) - 1
    period = stride * radix
    while period < size:
        zero |= zero << period
        period *= 2
    zero &= (1 << size) - 1
    return [zero << d * stride for d in range(radix)]


class _Expand(Exception):
    """A new occurrence whose valid positions use more than one choice: its
    entry for ``occs`` (key, choice numbers used), and the number of valid
    positions an index with that digit would have."""


class AssignmentIndex:
    """Every negation assignment of a sentence, numbered as
    ``enumerate_assignments`` lists them: a mixed-radix index over the
    sorted atom keys, the first key most significant, as in
    ``itertools.product``.

    The index may run over tables of atom values as well: the atoms in
    ``values`` then take one digit each, of radix |A|, ahead of the choice
    digits, so that each table's assignments follow the last table's.  A
    negated atom in ``values`` has the choices negs[v] at value v (its
    entry in ``options`` is not read): its digit is padded to the longest
    negs[v], and ``valid`` masks the positions whose every choice is in
    range.

    A comega negated compound takes a digit after the atom keys' too, one
    per entry (key, digits) of ``occs``, in the order evaluation reaches
    them: its digit d stands for the choice number digits[d].  Its choice
    is read when evaluation reaches it (``choose``): it is negs[v][n] where
    its body's value is v and its choice number is n, and the positions out
    of range, or past the double-negation bound, leave ``valid`` then.
    Under ``discover``, an occurrence that ``occs`` does not name takes no
    digit if the valid positions use one choice number there; if they use
    more, evaluation stops with ``_Expand``.  Each table's valid positions
    are then its assignments in enumeration order.  ``met`` lists the
    occurrences in the order evaluation reached them, with their choice
    numbers.

    Evaluated under the index, every value is a vector over it
    (``kernel.Planes``): an atom in ``values`` reads as the vector of its
    values (``value``, to be put in the model's table), a negated atom as
    the vector of its choices, and the connectives and quantifiers combine
    vectors plane-wise."""

    def __init__(
        self,
        options: Mapping[AtomKey, tuple[int, ...]],
        planes: Planes,
        values: Sequence[AtomKey] = (),
        negs: Sequence[tuple[int, ...]] = (),
        occs: Sequence[tuple[OccKey, Sequence[int]]] = (),
        discover: bool = False,
    ):
        n = planes.alg.size
        self.values = tuple(values)
        self.keys = sorted(options)
        self._planes = planes
        self._negs = negs
        self._discover = discover
        digit = {key: j for j, key in enumerate(self.values)}
        # the digit of each key's value (None: one value), and its choices at each value
        self._governor = [digit.get(key) for key in self.keys]
        self._choices = [
            (options[key],) if j is None else negs for key, j in zip(self.keys, self._governor)
        ]
        self._radices = [n] * len(self.values) + [max(map(len, c)) for c in self._choices] + [len(d) for _, d in occs]
        self.size = math.prod(self._radices)
        self.ops = (planes.meet, planes.join, planes.imp)
        strides = [1] * len(self._radices)  # the last digit varies fastest
        for j in range(len(strides) - 2, -1, -1):
            strides[j] = strides[j + 1] * self._radices[j + 1]

        def masks(j: int) -> list[int]:
            return _digit_masks(strides[j], self._radices[j], self.size)

        value_masks = [masks(j) for j in range(len(self.values))]
        self._values = {key: planes.from_masks(zip(m, range(n))) for key, m in zip(self.values, value_masks)}
        self._vectors: dict[AtomKey, Vector] = {}
        invalid = 0
        for c, (key, j, choices) in enumerate(zip(self.keys, self._governor, self._choices), len(self.values)):
            if j is None:
                (opts,) = choices
                self._vectors[key] = opts[0] if len(opts) == 1 else planes.from_masks(zip(masks(c), opts))
                continue
            pairs = []
            choice_masks = masks(c)
            for at, opts in zip(value_masks[j], choices):
                pairs += ((at & m, choice) for m, choice in zip(choice_masks, opts))
                for m in choice_masks[len(opts) :]:
                    invalid |= at & m
            self._vectors[key] = planes.from_masks(pairs)
        self.valid = (1 << self.size) - 1 & ~invalid
        first = len(self.values) + len(self.keys)
        # per occurrence: (choice number, positions) for each of its digits
        self._occ_masks = {key: list(zip(d, masks(c))) for c, (key, d) in enumerate(occs, first)}
        self._occ_vectors: dict[OccKey, Vector] = {}
        self.met: list[tuple[OccKey, tuple[int, ...]]] = []
        self.orders: tuple = ()  # per occurrence in met: the rank of its instance

    def atom(self, key: AtomKey) -> Vector | None:
        return self._vectors.get(key)

    def choose(self, key: OccKey, base: Vector, bound: Vector | None) -> Vector:
        """The choices at occurrence key, whose body has the values base:
        negs[v][n] where base is v and the choice number is n.  The
        positions whose choice number is past negs[v], or (under a double
        negation) whose choice is not below bound, leave ``valid``."""
        numbers = self._occ_masks.get(key)
        if numbers is None:
            if not self._discover:
                raise UncoveredNegation(f"occurrence at path {key[1]}, bindings {key[2]}")
            numbers = self._occ_masks[key] = [(self._used(key, base, bound), -1)]
        self.met.append((key, tuple(d for d, _ in numbers)))
        planes = self._planes
        pairs = []
        invalid = 0
        for v, opts in enumerate(self._negs):
            at = planes.where(base, v)
            if at:
                for d, m in numbers:
                    if d < len(opts):
                        pairs.append((at & m, opts[d]))
                    else:
                        invalid |= at & m
        choice = planes.from_masks(pairs)
        if bound is not None:
            invalid |= planes.exceeds(choice, bound)
        self.valid &= ~invalid
        self._occ_vectors[key] = choice
        return choice

    def _used(self, key: OccKey, base: Vector, bound: Vector | None) -> int:
        """The one choice number that the valid positions use at a new
        occurrence; ``_Expand`` if they use more."""
        planes = self._planes
        used: dict[int, int] = {}  # choice number -> the valid positions that may take it
        for v, opts in enumerate(self._negs):
            at = planes.where(base, v) & self.valid
            for d, c in enumerate(opts if at else ()):
                hits = (at if bound is None else at & ~planes.exceeds(c, bound)).bit_count()
                if hits:
                    used[d] = used.get(d, 0) + hits
        if len(used) > 1:
            raise _Expand((key, tuple(sorted(used))), sum(used.values()))
        return min(used, default=0)

    def value(self, key: AtomKey) -> Vector:
        """The values of an atom in ``values``, position by position."""
        return self._values[key]

    def _digits(self, i: int) -> list[int]:
        out = []
        for radix in reversed(self._radices):
            i, d = divmod(i, radix)
            out.append(d)
        out.reverse()
        return out

    def digits(self, i: int) -> tuple[int, ...]:
        """The choices at position i: one per key, then one per occurrence
        in ``met``.  Each N_v is sorted, so they order as choice numbers."""
        decode = self._planes.decode
        return (*(c for _, c in self.decode(i).atoms), *(decode(self._occ_vectors[key], i) for key, _ in self.met))

    def table(self, i: int) -> tuple[int, ...]:
        """The values of the atoms in ``values`` at position i."""
        return tuple(self._digits(i)[: len(self.values)])

    def decode(self, i: int) -> Assignment:
        digits = self._digits(i)
        atoms = tuple(
            (key, choices[0 if j is None else digits[j]][d])
            for key, j, choices, d in zip(self.keys, self._governor, self._choices, digits[len(self.values) :])
        )
        decode = self._planes.decode
        occs = tuple(sorted((key, decode(choice, i)) for key, choice in self._occ_vectors.items()))
        return Assignment(atoms=atoms, occs=occs)



# positions of one vector evaluation: an enumeration past it is swept in
# runs over its outer digits (``_runs``)
_SWEEP_SIZE = 1 << 16
# a run of comega occurrence digits grows past one _DENSITY-th of the sweep
# size only while one in _DENSITY of its positions stays valid (``_Group``)
_DENSITY = 8


def _runs(digits: Callable[[tuple[int, ...]], Sequence[int]], span: Callable[[tuple[int, ...]], float]) -> Iterator[tuple[int, ...]]:
    """The runs that cover the positions of an enumeration in order: each
    run fixes a prefix of its digits and sweeps the rest.  span(prefix) is
    the number of positions of the run that fixes prefix, and digits(prefix)
    the values of the digit after prefix (none once prefix fixes every
    digit).  A prefix is extended by one digit, over every value, until its
    run fits in ``_SWEEP_SIZE`` or it fixes every digit."""
    stack = [()]
    while stack:
        prefix = stack.pop()
        more = span(prefix) > _SWEEP_SIZE and digits(prefix)
        if more:
            stack.extend(prefix + (v,) for v in reversed(more))
        else:
            yield prefix


def _blocks(valid: int, size: int, block: int) -> list[int]:
    """The valid positions in each block of block positions, in order."""
    return [(valid >> at & (1 << block) - 1).bit_count() for at in range(0, size, block)]


def _first_trip(counts: Iterable[int], cap: int) -> CapExceeded | None:
    """The cap trip of an enumeration that lists the occurrence choices of
    each atom combination in turn, counts[k] of them at the k-th: on the
    first combination with more than cap, or where the running count of
    assignments passes cap; None if neither happens."""
    total = 0
    for count in counts:
        if count > cap:
            return _cap_exceeded("occurrence choices", cap, cap + 1)
        total += count
        if total > cap:
            return _cap_exceeded("assignments", cap, cap + 1)
    return None


def _atom_key(node: Formula, env: Mapping[str, int]) -> AtomKey:
    if isinstance(node, Bot):
        return ("bot",)
    if isinstance(node, Eq):
        a = _resolve(node.left, env)
        b = _resolve(node.right, env)
        return ("eq", a, b) if a <= b else ("eq", b, a)  # symmetric by construction
    if isinstance(node, Mem):
        return ("mem", _resolve(node.left, env), _resolve(node.right, env))
    if isinstance(node, Pred):
        if node.args:
            return ("pred", node.sym, tuple(_resolve(a, env) for a in node.args))
        return ("pred", node.sym)
    raise EvalError(f"not an atom: {node!r}")


def _resolve(t: Term, env: Mapping[str, int]) -> int:
    if t.__class__ is Var:
        try:
            return env[t.name]
        except KeyError:
            raise EvalError(f"free variable {t.name!r} in a closed evaluation") from None
    if t.__class__ is NameConst:
        return t.ref
    raise EvalError("function terms have no set-model interpretation")


_ATOMIC = (Bot, Mem, Eq, Pred)


def _reads_pred(node: Formula) -> bool:
    return any(sub.__class__ is Pred for sub in subformulas(node))


# --- the evaluation context ------------------------------------------------------


class _Domain:
    """The name ids a vector is read at: their mask, and one more than the
    largest (the row coverage a read needs); for the scope, once a fold has
    asked for them, its classes (``EvalContext.classes``)."""

    __slots__ = ("ids", "mask", "need", "children", "classes")

    def __init__(self, ids: Sequence[int]):
        self.ids = tuple(ids)
        self.children: list[int] | None = None
        self.classes: _Domain | None = None
        self.mask = 0
        for i in self.ids:
            self.mask |= 1 << i
        self.need = max(self.ids) + 1 if self.ids else 0


class _Fold:
    """Folding a choice-free node over var: its values for every name bound
    to var, one vector exact at the ids of dom.  An atom that mentions var
    reads a kernel row or column, a node that does not is evaluated once as
    an element, and the connectives combine vectors plane-wise.

    Given a ``_Probe``, the fold probes a node with negation choices for
    every name at once, as ``_Probe`` does for one instance: ``reads``
    lists the values of its choice-free subformulas (a vector where one
    mentions var, else an element), ``patterns`` the key of every negated
    atom that mentions var, with -1 in var's place, and the probe records
    the negated atoms that do not.  A node without var but with choices is
    probed as one instance, and its value goes to ``reads``; ``opaque``
    says one was, so that ``reads`` may not fix the node's value per name."""

    __slots__ = ("var", "dom", "ops", "probe", "plain", "reads", "patterns", "opaque")

    def __init__(self, var: str, dom: _Domain, planes: Planes, probe: _Probe | None = None):
        self.var = var
        self.dom = dom
        self.ops = (planes.meet, planes.join, planes.imp)
        self.probe = probe
        self.plain = None if probe is None else _Fold(var, dom, planes)
        self.reads: list[Vector] | None = None if probe is None else []
        self.patterns: list[AtomKey] = []
        self.opaque = False


def _memo(cache: dict, fn: Callable, key: object):
    """fn(key), cached by the identity of key while it lives."""
    hit = cache.get(id(key))
    if hit is None or hit[0] is not key:
        hit = cache[id(key)] = (key, fn(key))
    return hit[1]


class EvalContext:
    """Evaluation state for one model: the bit-sliced equality/membership
    kernel (built on first use) and the atom values read so far.

    Every value held here is negation-free, hence assignment-independent
    and safe to share across assignment enumeration.
    """

    def __init__(self, model: SetModel):
        self.model = model
        self.alg = model.algebra
        self._kernel: EqMemKernel | None = None
        self._atoms: dict[AtomKey, Vector] = {}
        # a choice-free quantifier folds to one vector over names, unless
        # the atom values are vectors already
        self.folds = not any(v.__class__ is tuple for v in model.prop_values.values())
        if self.folds:
            self.element_ops = (self.alg.meet_, self.alg.join_, self.alg.imp_)
        else:
            # atom values that are vectors over an AssignmentIndex's tables
            p = self.alg.planes
            self.element_ops = (p.meet, p.join, p.imp)
        # id(key) -> (key, value); the key is held so its id stays unique
        self._free: dict[int, tuple[Formula, frozenset[str]]] = {}
        self._negfree: dict[int, tuple[Formula, bool]] = {}
        self._atoms_only: dict[int, tuple[Formula, bool]] = {}
        self._nnf: dict[int, tuple[Formula, Formula]] = {}
        self._domains: dict[int, tuple[Sequence[int], _Domain]] = {}
        self._preds: dict[int, tuple[Formula, bool]] = {}

    @property
    def kernel(self) -> EqMemKernel:
        if self._kernel is None:
            self._kernel = EqMemKernel(self.alg.planes, self.model.store)
        return self._kernel

    @property
    def planes(self) -> Planes:
        return self.alg.planes

    # ||u ~ v|| -- symmetric by construction
    def eval_eq(self, u: int, v: int) -> int:
        return self.atom_value(("eq", u, v) if u <= v else ("eq", v, u))

    # ||u in v||
    def eval_mem(self, u: int, v: int) -> int:
        return self.atom_value(("mem", u, v))

    def atom_value(self, key: AtomKey) -> Vector:
        value = self._atoms.get(key)
        if value is None:
            value = self._read_atom(key)
            self._atoms[key] = value
        return value

    def _read_atom(self, key: AtomKey) -> Vector:
        if key[0] == "bot":
            return self.alg.bottom
        if key[0] == "eq":
            return self.kernel.eq(key[1], key[2])
        if key[0] == "mem":
            return self.kernel.mem(key[1], key[2])
        if key[0] == "pred":  # a table cell: sym, or (sym, args) with arguments
            cell = key[1] if len(key) == 2 else key[1:]
            if cell not in self.model.prop_values:
                if len(key) == 2:
                    raise EvalError(f"no value for propositional atom {cell!r}")
                args = ", ".join(f"#{a}" for a in key[2])
                raise EvalError(f"no value for predicate atom {key[1]}({args})")
            return self.model.prop_values[cell]
        raise EvalError(f"bad atom key {key!r}")

    # --- vector folds ---------------------------------------------------------

    def choice_free(self, node: Formula, mode: str) -> bool:
        """No negation choice anywhere in node under this mode."""
        return mode in ("boolean", "heyting") or _memo(self._negfree, is_negation_free, node)

    def congruent(self, node: Formula, mode: str) -> bool:
        """No negation choice under this mode and no predicate atom, whose
        table need not respect equality: Leibniz's law holds of node,
        ||u = v|| ^ node(u) <= node(v) (``check_leibniz``)."""
        return self.choice_free(node, mode) and not _memo(self._preds, _reads_pred, node)

    def compound_free(self, node: Formula) -> bool:
        """No negation over a compound body in node: in comega mode, no
        occurrence choice."""
        return _memo(self._atoms_only, negates_atoms_only, node)

    def _free_vars(self, node: Formula) -> frozenset[str]:
        return _memo(self._free, free_vars, node)

    def nnf(self, node: Neg) -> Formula:
        """n4 only: a negation pushed to the atoms by ``nnf_n4``."""
        return _memo(self._nnf, nnf_n4, node)

    def domain(self, ids: Sequence[int]) -> _Domain:
        """The domain of a sequence of ids, cached while the sequence lives."""
        return _memo(self._domains, _Domain, ids)

    def classes(self, model: SetModel) -> _Domain:
        """One name per class of indiscernible scope names (||u = v|| =
        top), the first in scope order; the whole scope when its ids are
        not names of the store.  A choice-free node without predicate
        atoms takes one value on a class, by the substitution lemmas, so a
        fold over the scope reads the classes (``fold_domain``); computed
        on the first such read, after which the kernel reads every scope
        name by its class's rows."""
        dom = self.domain(model.scope)
        if dom.classes is None:
            n = len(model.store)
            names = all(0 <= i < n for i in dom.ids)
            dom.classes = _Domain(self.kernel.classes(dom.ids)) if names else dom
        return dom.classes

    def fold_domain(self, node: Formula, model: SetModel) -> _Domain:
        """The names a choice-free fold of node over the scope ranges over:
        its classes, unless node reads a predicate atom, whose table need
        not respect them."""
        if _memo(self._preds, _reads_pred, node):
            return self.domain(model.scope)
        return self.classes(model)

    def fold(self, node: Forall | Exists, env: Mapping[str, int], model: SetModel) -> int:
        """A choice-free quantifier as one vector over its variable."""
        forall = isinstance(node, Forall)
        var = node.var
        if var in env:
            env = {k: v for k, v in env.items() if k != var}
        bounded = bounded_parts(node) if model.bounded_opt else None
        if bounded is None:
            dom = self.fold_domain(node.body, model)
            vec = self.vector(node.body, env, var, dom, model)
            p = self.planes
            return p.meet_over(vec, dom.mask) if forall else p.join_over(vec, dom.mask)
        bound_term, body = bounded
        entries = model.store.get(_resolve(bound_term, env)).entries
        dom = _Domain([child for child, _ in entries])
        vec = self.vector(body, env, var, dom, model)
        p = self.planes
        weights = p.from_values(entries)
        if forall:
            return p.meet_over(p.imp(weights, vec), dom.mask)
        return p.join_over(p.meet(weights, vec), dom.mask)

    def vector(
        self,
        node: Formula,
        env: Mapping[str, int],
        var: str,
        dom: _Domain,
        model: SetModel,
    ) -> Vector:
        """The values of a choice-free node for every name bound to var,
        exact at the ids of dom; an element when node does not mention var."""
        return _eval(node, dict(env), (), (), model, _Fold(var, dom, self.planes), self)

    def _vector_atom(self, node: Formula, env: Mapping[str, int], var: str, dom: _Domain) -> Vector:
        """An atom that mentions var: a kernel row or column, or its values
        read id by id."""
        cls = node.__class__
        if cls is Pred:
            env2 = dict(env)
            values = []
            for i in dom.ids:
                env2[var] = i
                values.append((i, self._read_atom(_atom_key(node, env2))))
            return self.planes.from_values(values)
        left = node.left.__class__ is Var and node.left.name == var
        right = node.right.__class__ is Var and node.right.name == var
        if not (left or right):  # var sits inside a function term
            raise EvalError("function terms have no set-model interpretation")
        kernel = self.kernel
        if left and right:
            p = self.planes
            if cls is Eq:
                # ||x = x|| at each id, read from the row of its class
                members: dict[int, int] = {}
                for i in dom.ids:
                    r = kernel.rep(i)
                    members[r] = members.get(r, 0) | 1 << i
                rows = (tuple(plane & m for plane in kernel.eqrow(r, dom.need)) for r, m in members.items())
                return functools.reduce(p.join, rows, p.bottom)
            # ||x in x|| = join over the child names z of x(z) ^ ||z = x||
            rows = (p.meet(kernel.entry(z), kernel.eqrow(z, dom.need)) for z in self._children(dom))
            return functools.reduce(p.join, rows, p.bottom)
        other = _resolve(node.right if left else node.left, env)
        if cls is Eq:
            return kernel.eqrow(other, dom.need)
        if left:
            return kernel.memcol(other, dom.need)
        return kernel.memrow(other, dom.need)

    def _children(self, dom: _Domain) -> list[int]:
        if dom.children is None:
            store = self.model.store
            dom.children = sorted({c for nid in dom.ids for c, _ in store.get(nid).entries})
        return dom.children


# --- sentence evaluation ----------------------------------------------------------


def eval_sentence(
    phi: Formula,
    model: SetModel,
    assignment: Assignment | AssignmentIndex = EMPTY_ASSIGNMENT,
    ctx: EvalContext | None = None,
    path: tuple[int, ...] = (),
) -> Vector:
    """Truth value of a closed formula under a concrete assignment (an
    element), or under an ``AssignmentIndex`` (a vector over the index).

    ``path`` is the position of phi inside the sentence the assignment was
    enumerated for; comega occurrence choices are keyed by position."""
    ctx = ctx or EvalContext(model)
    if assignment.__class__ is _Deferred:
        assignment = Assignment(assignment.atoms, assignment.occs)
    return _eval(phi, {}, (), path, model, assignment, ctx)


def _eval(
    node: Formula,
    env: dict[str, int],
    trail: tuple[int, ...],
    path: tuple[int, ...],
    model: SetModel,
    asg: Assignment | AssignmentIndex | _Probe | _Fold,
    ctx: EvalContext,
) -> Vector:
    """The value of node under a concrete assignment (an element), under
    an ``AssignmentIndex`` (a vector over the index), under a ``_Probe``
    (which records the negated atoms read), or under a ``_Fold`` (a vector
    over the folded variable)."""
    alg = model.algebra
    if asg.__class__ is _Fold:
        mentions = asg.var in ctx._free_vars(node)
        if asg.probe is not None and (isinstance(node, _ATOMIC) or ctx.choice_free(node, model.mode)):
            # a probing fold reads a choice-free node as one value
            value = _eval(node, env, trail, path, model, asg.plain if mentions else EMPTY_ASSIGNMENT, ctx)
            asg.reads.append(value)
            return value
        if mentions:
            if isinstance(node, _ATOMIC):
                return ctx._vector_atom(node, env, asg.var, asg.dom)
        elif isinstance(node, _ATOMIC):
            return ctx._read_atom(_atom_key(node, env))
        elif asg.probe is None:
            asg = EMPTY_ASSIGNMENT
        else:
            value = _eval(node, env, trail, path, model, asg.probe, ctx)
            asg.reads.append(value)
            asg.opaque = True
            return value
    elif isinstance(node, _ATOMIC):
        return ctx.atom_value(_atom_key(node, env))
    meet, join, imp = ctx.element_ops if asg.__class__ is Assignment else asg.ops
    if isinstance(node, Neg):
        if model.mode in ("boolean", "heyting"):
            return imp(_eval(node.body, env, trail, path + (0,), model, asg, ctx), alg.bottom)
        if model.mode == "n4" and not isinstance(node.body, _ATOMIC):
            return _eval(ctx.nnf(node), env, trail, path, model, asg, ctx)
        return _neg_choice(node, env, trail, path, model, asg, ctx)[0]
    if isinstance(node, And):
        sides = iff_sides(node)
        # a comega negated compound in a side is chosen per position, so
        # its two positions stay two evaluations
        if sides is not None and (model.mode != "comega" or ctx.compound_free(node)):
            a = _eval(sides[0], env, trail, path + (0, 0), model, asg, ctx)
            b = _eval(sides[1], env, trail, path + (0, 1), model, asg, ctx)
            return meet(imp(a, b), imp(b, a))
        return meet(
            _eval(node.left, env, trail, path + (0,), model, asg, ctx),
            _eval(node.right, env, trail, path + (1,), model, asg, ctx),
        )
    if isinstance(node, Or):
        return join(
            _eval(node.left, env, trail, path + (0,), model, asg, ctx),
            _eval(node.right, env, trail, path + (1,), model, asg, ctx),
        )
    if isinstance(node, Imp):
        return imp(
            _eval(node.left, env, trail, path + (0,), model, asg, ctx),
            _eval(node.right, env, trail, path + (1,), model, asg, ctx),
        )
    if isinstance(node, (Forall, Exists)):
        folding = asg.__class__ is _Fold
        if not folding and ctx.folds and ctx.choice_free(node.body, model.mode):
            return ctx.fold(node, env, model)
        forall = isinstance(node, Forall)
        acc = alg.top if forall else alg.bottom
        env2 = dict(env)
        bounded = bounded_parts(node) if model.bounded_opt else None
        if bounded is not None:
            bound_term, body = bounded
            if folding and bound_term.__class__ is Var and bound_term.name == asg.var:
                # the range is dom(x) for each x: weigh every child name z
                # by the entry vector x -> x(z)
                entries = [(z, ctx.kernel.entry(z)) for z in ctx._children(asg.dom)]
            else:
                entries = model.store.get(_resolve(bound_term, env)).entries
            for child, a in entries:
                env2[node.var] = child
                sub = _eval(body, env2, trail + (child,), path + (0, 1), model, asg, ctx)
                acc = meet(acc, imp(a, sub)) if forall else join(acc, meet(a, sub))
            return acc
        combine = meet if forall else join
        plain = folding and asg.probe is None
        for nid in ctx.fold_domain(node.body, model).ids if plain else model.scope:
            env2[node.var] = nid
            acc = combine(acc, _eval(node.body, env2, trail + (nid,), path + (0,), model, asg, ctx))
        return acc
    raise EvalError(f"cannot evaluate {node!r}")


def _neg_choice(
    node: Neg,
    env: dict[str, int],
    trail: tuple[int, ...],
    path: tuple[int, ...],
    model: SetModel,
    asg: Assignment | AssignmentIndex | _Probe,
    ctx: EvalContext,
) -> tuple[Vector, Vector]:
    """The chosen value of a negation and the value of its body, the choice
    checked against N_body and, under a double negation, against the
    double-negation bound.  Atoms take their functional choice (from an
    index, the vector of its admissible choices); comega compound bodies
    take the choice of this occurrence, read after the body is evaluated,
    since its options depend on the body's value (under an index, from the
    occurrence's digit)."""
    body = node.body
    if isinstance(body, _ATOMIC):
        if asg.__class__ is _Fold:  # a probing fold; body mentions its variable
            asg.patterns.append(_atom_key(body, {**env, asg.var: -1}))
            value = _eval(body, env, trail, path + (0,), model, asg, ctx)
            return value, value
        key = _atom_key(body, env)
        choice = asg.atom(key)
        if choice is None:
            raise UncoveredNegation(f"atom {key}")
        base = ctx.atom_value(key)
        if asg.__class__ is Assignment and choice not in model.neg_options(base):
            raise InvalidAssignment(f"choice {choice} not in N_{base} for {key}")
        return choice, base
    double = isinstance(body, Neg)
    if double:  # the inner step also yields the value the bound needs
        base, inner = _neg_choice(body, env, trail, path + (0,), model, asg, ctx)
    else:
        base, inner = _eval(body, env, trail, path + (0,), model, asg, ctx), None
    key = ("occ", path, trail)
    if asg.__class__ is AssignmentIndex:
        return asg.choose(key, base, inner), base
    if asg.__class__ is _Probe:
        asg.occs.append(key)
        return base, base
    if asg.__class__ is _Fold:
        return base, base
    choice = asg.occ(key)
    if choice is None:
        raise UncoveredNegation(f"occurrence at path {path}, bindings {trail}")
    if choice not in model.neg_options(base):
        raise InvalidAssignment(f"choice {choice} not in N_{base} at {path}")
    if double and not model.algebra.le(choice, inner):
        raise InvalidAssignment(
            f"double negation value {choice} exceeds {inner} at {path}"
        )
    return choice, base


# --- assignment enumeration --------------------------------------------------------


def _cap_exceeded(what: str, cap: int, predicted: int) -> CapExceeded:
    return CapExceeded(f"more than {cap} {what}", cap="ASSIGNMENT_CAP", limit=cap, predicted=predicted)


class _Probe:
    """Records the options of each negated atom as the evaluation reads it:
    one pass of ``_eval`` finds the atom keys of exactly the instances it
    evaluates (the scope, or a bounded quantifier's domain), and the keys of
    the comega occurrences in the order it reaches them.  Its values are
    never read, so every negation answers with its body's value.  The cap
    trips as soon as the product of the option counts passes it: of total
    and the keys not in known, when a caller counts keys before it."""

    def __init__(self, model: SetModel, ctx: EvalContext, cap: float, known: Container = (), total: int = 1):
        self.model = model
        self.ctx = ctx
        self.cap = cap
        self.ops = ctx.element_ops
        self.options: dict[AtomKey, tuple[int, ...]] = {}
        self.occs: list[OccKey] = []
        self.known = known
        self.total = total

    def atom(self, key: AtomKey) -> int:
        value = self.ctx.atom_value(key)
        if key not in self.options:
            self.options[key] = self.model.neg_options(value)
            if key not in self.known:
                self.total *= len(self.options[key])
                if self.total > self.cap:
                    raise _cap_exceeded("atom assignments", self.cap, self.total)
        return value


# an instance: a node, its bindings, trail and path, and its rank in evaluation order
_Instance = tuple[Formula, dict, tuple, tuple, tuple]


def _probe(inst: _Instance, model: SetModel, ctx: EvalContext, cap: float = math.inf, known: Container = (), total: int = 1) -> _Probe:
    """The negated ground atoms that evaluating an instance reads, with
    their options, in reading order, and its comega occurrences, in
    evaluation order: one evaluation under a ``_Probe``, none where the
    instance has no negation choice."""
    probe = _Probe(model, ctx, cap, known, total)
    if not ctx.choice_free(inst[0], model.mode):
        _eval(*inst[:4], model, probe, ctx)
    return probe


class _Join:
    """Instances joined where they read a common negated atom: a
    union-find over the instances, each probed once as it is added
    (``probes``, its instance and options), each root holding its group's
    number of atom assignments, so that the cap trips as soon as a group
    passes it.  With ``whole``, the cap bounds the atom assignments of all
    the instances instead, counted in reading order (``total``), so that
    it trips where one probe of the sentence they instantiate would."""

    def __init__(self, model: SetModel, ctx: EvalContext, cap: float, whole: bool = False):
        self.model = model
        self.ctx = ctx
        self.cap = cap
        self.whole = whole
        self.total = 1
        self.probes: list[tuple[_Instance, dict[AtomKey, tuple[int, ...]]]] = []
        self._parent: list[int] = []
        self._total: list[int] = []
        self._owner: dict[AtomKey, int] = {}

    def _find(self, i: int) -> int:
        parent = self._parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def add(self, inst: _Instance) -> dict[AtomKey, tuple[int, ...]]:
        """Probe inst and join it to every group that reads one of its keys;
        its options."""
        i = len(self.probes)
        if self.whole:
            probe = _probe(inst, self.model, self.ctx, self.cap, self._owner, self.total)
            self.total = probe.total
        else:
            probe = _probe(inst, self.model, self.ctx, self.cap)
        options = probe.options
        self.probes.append((inst, options))
        parent, total = self._parent, self._total
        parent.append(i)
        total.append(1)
        for key, opts in options.items():
            j = self._owner.setdefault(key, i)
            ri, rj = self._find(i), self._find(j)
            if j == i:  # a key no other instance read
                total[ri] *= len(opts)
            elif ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
                total[min(ri, rj)] = total[ri] * total[rj]
                ri = min(ri, rj)
            if total[ri] > self.cap:
                raise _cap_exceeded("atom assignments", self.cap, total[ri])
        return options

    def groups(self) -> list[tuple[list[_Instance], dict[AtomKey, tuple[int, ...]]]]:
        """The groups in the order of their first instances added, each as
        its instances in rank order and the options of the keys they read."""
        members: dict[int, list[int]] = {}
        for i in range(len(self.probes)):
            members.setdefault(self._find(i), []).append(i)
        return [
            (
                sorted((self.probes[i][0] for i in group), key=lambda inst: inst[4]),
                {key: opts for i in group for key, opts in self.probes[i][1].items()},
            )
            for group in members.values()
        ]


def _joined_values(
    instances: Sequence[_Instance], model: SetModel, ctx: EvalContext, cap: int
) -> tuple[dict[tuple, Vector], AssignmentIndex | _Product]:
    """``_instance_values`` of a sentence's instances, in its evaluation
    order: each instance is probed once, in that order, and a ``_Join``
    joins them into groups that share no negated atom.  The probes read the
    keys one probe of the sentence would, in the same order, so the cap
    trips on their atom assignments where that probe would."""
    join = _Join(model, ctx, cap, whole=True)
    for inst in instances:
        join.add(inst)
    return _instance_values(join.groups(), model, ctx, cap)


class _Group:
    """comega instances joined by the negated atoms they read, under one
    enumeration: their assignments in enumeration order, as the valid
    positions of ``AssignmentIndex`` runs (``runs``, each with its
    instances' values).  An occurrence takes a digit only where its valid
    positions use more than one choice (``discover``), over the choices
    they use, so that a forced occurrence adds no positions.  A run fixes
    a prefix of the digits (``_runs``): the atom keys' in sorted order,
    then those of the occurrences, in evaluation order."""

    def __init__(
        self,
        instances: Sequence[_Instance],
        options: Mapping[AtomKey, tuple[int, ...]],
        model: SetModel,
        ctx: EvalContext,
        cap: int,
    ):
        self.instances = instances
        self.options = options
        self.model = model
        self.ctx = ctx
        self.cap = cap
        self.keys = sorted(options)
        self.radices = [len(options[key]) for key in self.keys]
        self.runs: list[tuple[AssignmentIndex, list[Vector]]] = []
        # per prefix: its occurrence digits, fixed where the prefix fixes
        # them, and its run once found to fit
        self._occs: dict[tuple[int, ...], list] = {(): []}
        self._fits: dict[tuple[int, ...], tuple] = {}
        self._past: set[tuple[int, ...]] = set()  # runs of one combination past the cap

    @functools.cached_property
    def counts(self) -> list[int]:
        """The assignments at each atom combination, the runs swept in
        order until the combinations they complete pass the cap, or one
        combination alone does (an enumeration trips by then, so the later
        combinations are left at 0)."""
        counts = [0] * math.prod(self.radices)
        total = 0
        for prefix in _runs(self._digits, self._span):
            first = 0  # the first combination the run covers
            for d, radix in itertools.zip_longest(prefix[: len(self.keys)], self.radices, fillvalue=0):
                first = first * radix + d
            if total - counts[first] > self.cap or counts[first] > self.cap:
                break
            if prefix in self._past:
                counts[first] = self.cap + 1
                break
            index, values = self._fits.pop(prefix)
            self.runs.append((index, values))
            for k, count in enumerate(_blocks(index.valid, index.size, index.size // math.prod(self.radices[len(prefix) :])), first):
                counts[k] += count
                total += count
        return counts

    def _digits(self, prefix: tuple[int, ...]) -> Sequence[int]:
        """The values of the digit after prefix: an atom key's option
        numbers, or the choice numbers of the first occurrence that takes
        more than one; each child prefix fixes it."""
        occs = self._occs[prefix]
        if len(prefix) < len(self.keys):
            values = range(self.radices[len(prefix)])
            self._occs.update((prefix + (d,), []) for d in values)
            return values
        j, (key, values) = next((j, occ) for j, occ in enumerate(occs) if len(occ[1]) > 1)
        self._occs.update((prefix + (d,), [*occs[:j], (key, (d,))]) for d in values)
        return values

    def _span(self, prefix: tuple[int, ...]) -> float:
        """The positions of the run that fixes prefix, its instances
        evaluated once more for each occurrence that takes a digit.  Past
        the sweep size, or past a ``_DENSITY``-th of it with fewer than one
        in ``_DENSITY`` positions valid, the run does not fit, and its
        occurrence digits so far pass to its children."""
        occs = self._occs[prefix]
        negs = self.model.structure.negs
        options = {**self.options, **{key: (self.options[key][d],) for key, d in zip(self.keys, prefix)}}
        while True:
            index = AssignmentIndex(options, self.ctx.planes, (), negs, occs, discover=True)
            if index.size > _SWEEP_SIZE:
                break
            values, orders = [], []
            try:
                for inst in self.instances:
                    met = len(index.met)
                    values.append(_eval(*inst[:4], self.model, index, self.ctx))
                    orders += [inst[4]] * (len(index.met) - met)
            except _Expand as grow:
                occ, valid = grow.args
                occs = [*index.met, occ]
                if valid > self.cap and len(prefix) >= len(self.keys):
                    self._past.add(prefix)  # one combination, past the cap already
                    return 0
                grown = index.size * len(occ[1])
                if grown * _DENSITY > _SWEEP_SIZE and valid * _DENSITY < grown:
                    break
                continue
            index.orders = tuple(orders)
            self._fits[prefix] = index, values
            return index.size
        self._occs[prefix] = occs
        return math.inf


class _Product:
    """The assignments of groups that read no negated atom in common: one
    digit per group over the group's assignments, the first group most
    significant.  Position 0 is the first assignment in enumeration order,
    and with one group every position is in enumeration order (``keys``,
    ``orders`` and ``digits`` read the first group).  ``values`` holds each
    instance's vector by its rank."""

    def __init__(self, groups: Sequence[_Group], planes: Planes):
        # per group: its runs with the positions of their assignments, and
        # the (run, position) of each assignment
        swept = [[(index, values, _bits(index.valid)) for index, values in group.runs] for group in groups]
        self._picks = [[(index, j) for index, _, js in runs for j in js] for runs in swept]
        radices = [len(picks) for picks in self._picks]
        self.size = math.prod(radices)
        self._strides = [math.prod(radices[g + 1 :]) for g in range(len(groups))]
        first = groups[0].runs[0][0]
        self.keys, self.orders = first.keys, first.orders
        full = (1 << self.size) - 1
        self.values: dict[tuple, Vector] = {}
        for group, runs, radix, stride in zip(groups, swept, radices, self._strides):
            for k, inst in enumerate(group.instances):
                if not self.size:  # a group without assignments: no position to hold
                    self.values[inst[4]] = planes.bottom
                    continue
                # each plane's bits at the group's assignments, each repeated
                # stride times, the whole repeated up to the size
                vector = tuple(
                    int(("".join(bit * stride for bit in bits) * (self.size // (radix * stride)))[::-1], 2)
                    for bits in _column(planes, runs, k)
                )
                self.values[inst[4]] = planes.decode(vector, 0) if all(v in (0, full) for v in vector) else vector

    def _at(self, i: int) -> list[tuple[AssignmentIndex, int]]:
        return [picks[i // stride % len(picks)] for picks, stride in zip(self._picks, self._strides)]

    def decode(self, i: int) -> Assignment:
        atoms: list = []
        occs: list = []
        for index, j in self._at(i):
            asg = index.decode(j)
            atoms += asg.atoms
            occs += asg.occs
        return Assignment(atoms=tuple(sorted(atoms)), occs=tuple(sorted(occs)))

    def digits(self, i: int) -> tuple[int, ...]:
        index, j = self._at(i)[0]
        return index.digits(j)


def _column(planes: Planes, runs: Sequence[tuple[AssignmentIndex, list[Vector], list[int]]], k: int) -> list[str]:
    """Per plane, the bits of the k-th instance's values at the given
    positions of each run, in order, as text."""
    out: list[list[str]] = [[] for _ in range(planes.width)]
    for index, values, positions in runs:
        if positions:
            take = operator.itemgetter(*(index.size - 1 - j for j in positions))
            value = values[k]
            for text, plane in zip(out, planes.const[value] if value.__class__ is int else value):
                text.append("".join(take(format(plane & (1 << index.size) - 1, f"0{index.size}b"))))
    return ["".join(text) for text in out]


def _combination_counts(groups: Sequence[_Group], cap: int) -> Iterator[int]:
    """The assignments at each atom combination, in order: the product of
    each group's count at its share of the combination, cut short once it
    passes cap."""
    radices = {key: radix for group in groups for key, radix in zip(group.keys, group.radices)}
    keys = sorted(radices)
    for combo in itertools.product(*(range(radices[key]) for key in keys)):
        number = dict(zip(keys, combo))
        count = 1
        for group in groups:
            j = 0
            for key, radix in zip(group.keys, group.radices):
                j = j * radix + number[key]
            count *= group.counts[j]
            if count > cap:
                break
        yield count


# --- verdicts -----------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    mode: str
    quantification: str | None
    rank_bound: int
    value_lo: int
    value_hi: int
    valid: bool
    n_assignments: int = 1
    witness: Assignment | None = None
    falsifier: Assignment | None = None
    notes: tuple[str, ...] = ()
    detail: tuple[str, ...] = ()

    def result_line(self) -> str:
        quant = self.quantification or "none"
        value = self.value_lo if quant == "all_assignments" else self.value_hi
        if quant == "some_assignment" and self.witness is not None:
            fp = self.witness.fingerprint()
        elif self.falsifier is not None:
            fp = self.falsifier.fingerprint()
        else:
            fp = "none"
        return (
            f"RESULT mode={self.mode} rank={self.rank_bound} quant={quant} "
            f"value={value} valid={'yes' if self.valid else 'no'} assignment={fp}"
        )


QUANTIFICATIONS = ("all_assignments", "some_assignment")


class Sweep:
    """A value under every negation assignment: one vector over the
    assignments' positions.  ``code`` decodes a position to its assignment
    (``decode``); for a component of the instance decomposition, whose
    positions are in enumeration order, it also gives the position's
    choices (``digits``), the atom keys of its first digits
    (``keys``, sorted) and, for each remaining digit, the evaluation rank of
    the instance whose occurrence it chooses (``orders``)."""

    def __init__(self, value: Vector, code, planes: Planes):
        self.value = value
        self.size = code.size
        self.code = code
        self.decode = code.decode
        self.mask = (1 << self.size) - 1
        self.lo = planes.meet_over(value, self.mask)
        self.hi = planes.join_over(value, self.mask)
        self.failing = planes.exceeds(planes.top, value) & self.mask  # value not top
        self.holding = self.mask & ~self.failing
        self._planes = planes

    def valid(self, quantification: str) -> bool:
        if quantification == "all_assignments":
            return not self.failing
        return bool(self.holding)

    def first(self, positions: int) -> Assignment | None:
        """The assignment at the lowest position in the mask positions."""
        return self.decode(_lowest(positions)) if positions else None

    @functools.cached_property
    def at(self) -> list[int]:
        """Per element, the positions whose value it is."""
        return [self._planes.where(self.value, e) & self.mask for e in range(len(self._planes.bits))]


def _instance_values(
    groups: Sequence[tuple[Sequence[_Instance], Mapping[AtomKey, tuple[int, ...]]]],
    model: SetModel,
    ctx: EvalContext,
    cap: int,
) -> tuple[dict[tuple, Vector], AssignmentIndex | _Product]:
    """Each instance's value, by its rank, under every assignment of groups
    of instances, each group (instances, options) reading only the negated
    atoms of its options and no two groups a common one: one vector per
    instance over the assignments' positions, and the positions' code.
    When every choice sits at a ground atom (outside comega mode always,
    in comega mode when no negation has a compound body), each instance is
    evaluated once, under the ``AssignmentIndex`` of every group's options.  A comega
    negated compound has options that depend on its body's value: each
    group is swept on its own (``_Group``), and the groups' assignments are
    combined (``_Product``).  The cap trips as a listing of the assignments
    would trip it, before the positions past it are built: on one atom
    combination's occurrence choices, or on the running count of
    assignments."""
    planes = ctx.planes
    instances = [inst for group, _ in groups for inst in group]
    if model.mode != "comega" or all(ctx.compound_free(inst[0]) for inst in instances):
        index = AssignmentIndex({key: opts for _, options in groups for key, opts in options.items()}, planes)
        return {inst[4]: _eval(*inst[:4], model, index, ctx) for inst in instances}, index
    swept = [_Group(group, options, model, ctx, cap) for group, options in groups]
    # no combination passes the cap while the groups' assignments stay within it
    total = 1
    for group in swept:
        total *= sum(group.counts)
        if total > cap:
            raise _first_trip(_combination_counts(swept, cap), cap)
    code = _Product(swept, planes)
    return code.values, code


def _component(
    instances: Sequence[_Instance],
    options: Mapping[AtomKey, tuple[int, ...]],
    meet: bool,
    model: SetModel,
    ctx: EvalContext,
    cap: int,
) -> Sweep:
    """The meet (or join) of instances that read only the negated atoms of
    options, under every assignment of them, the instances one group."""
    values, code = _instance_values([(instances, options)], model, ctx, cap)
    planes = ctx.planes
    return Sweep(functools.reduce(planes.meet if meet else planes.join, values.values()), code, planes)


def sweep_assignments(
    phi: Formula,
    model: SetModel,
    ctx: EvalContext,
    cap: int = ASSIGNMENT_CAP,
) -> Sweep:
    """The value of a closed formula under every negation assignment, as
    one vector: phi taken as a single instance (``check_valid`` splits it)."""
    inst = (phi, {}, (), (), ())
    return _component([inst], _probe(inst, model, ctx, cap).options, True, model, ctx, cap)


def enumerate_assignments(
    phi: Formula,
    model: SetModel,
    ctx: EvalContext | None = None,
    cap: int = ASSIGNMENT_CAP,
) -> list[Assignment]:
    """All admissible negation assignments for a closed formula, in
    enumeration order: the positions of its sweep.  The same ground atom
    receives one value across the whole formula; comega compound
    occurrences are enumerated per-occurrence with the double-negation
    bound enforced."""
    sweep = sweep_assignments(phi, model, ctx or EvalContext(model), cap)
    return [sweep.decode(i) for i in range(sweep.size)]


def check_valid(
    phi: Formula,
    model: SetModel,
    quantification: str = "all_assignments",
    ctx: EvalContext | None = None,
    cap: int = ASSIGNMENT_CAP,
) -> Verdict:
    """Rank-relative validity: the truth value must be top, quantified over
    negation assignments as requested.  phi is split into independent
    components (``decompose``): ``cap`` bounds each component's
    assignments, and ``KEY_CAP`` the negated atoms the instances read."""
    if quantification not in QUANTIFICATIONS:
        raise EvalError(f"unknown quantification {quantification!r}")
    from .decompose import split_values  # on first use: most commands split no sentence

    ctx = ctx or EvalContext(model)
    alg = model.algebra
    values, count, witness, falsifier = split_values(phi, model, ctx, cap)
    return Verdict(
        mode=model.mode,
        quantification=quantification,
        rank_bound=model.rank_bound,
        value_lo=alg.meet_all(values),
        value_hi=alg.join_all(values),
        valid=values <= {alg.top} if quantification == "all_assignments" else alg.top in values,
        n_assignments=count,
        witness=witness,
        falsifier=falsifier,
        notes=("rank-relative",),
    )


def check_leibniz(
    model: SetModel,
    formula_family: Sequence[tuple[str, Formula]],
    rank: int,
    quantification: str = "all_assignments",
    ctx: EvalContext | None = None,
    cap: int = ASSIGNMENT_CAP,
) -> Verdict:
    """Check ||u ~ v|| <= ||phi(u) -> phi(v)|| for every name pair of rank
    <= rank and every family member.

    Family members are (variable, formula) pairs with exactly that one
    free variable; phi(u) is phi with the variable bound to u.  For
    formulas with negation the inequality is quantified over assignments
    per the requested mode; the first violating (u, v, phi, assignment),
    in that order, is reported.

    A member with no negation choice under the mode and no predicate atom
    holds at every pair: Heyting-valued equality is a congruence for it,
    ||u = v|| ^ phi(u) <= phi(v) (Bell, ch. 1), by induction on phi from
    the eq and mem atoms.  It is read once, as a vector over the names, for
    its errors.  Every other member (a predicate table need not respect
    equality) is swept pair by pair (``_leibniz_pair``) in one loop over u,
    which reads the row ||u = v|| once.
    """
    if quantification not in QUANTIFICATIONS:
        raise EvalError(f"unknown quantification {quantification!r}")
    ctx = ctx or EvalContext(model)
    alg = model.algebra
    p = ctx.planes
    for var, phi in formula_family:
        if free_vars(phi) != {var}:
            raise EvalError(
                f"family member {formula_to_text(phi)} must have exactly one "
                f"free variable {var!r}"
            )
    names = [nid for nid in model.scope if model.store.get(nid).rank <= rank]
    dom = _Domain(names)
    choosing = []
    for k, (var, phi) in enumerate(formula_family):
        if ctx.congruent(phi, model.mode):
            ctx.vector(phi, {}, var, dom, model)
        else:
            choosing.append(k)
    probes: list[dict[int, dict]] = [{} for _ in formula_family]  # per member, by name
    every = quantification == "all_assignments"
    lo = alg.top
    first_violation: tuple[str, ...] = ()
    for u in names if choosing else ():
        row = ctx.kernel.eqrow(u, dom.need)
        bad = [0] * len(formula_family)  # per member, the names v that fail with u
        for v in names:
            eq_uv = p.decode(row, v)
            for k in choosing:
                sweep = _leibniz_pair(formula_family[k], u, v, probes[k], model, ctx, cap)
                lo = alg.meet_(lo, p.meet_over(p.imp(eq_uv, sweep.value), sweep.mask))
                failing = p.exceeds(eq_uv, sweep.value) & sweep.mask
                if failing if every else failing == sweep.mask:
                    bad[k] |= 1 << v
        if not first_violation and any(bad):
            v, k = next((v, k) for v in names for k, mask in enumerate(bad) if mask >> v & 1)
            fp = "all-fail"
            if every:  # the one pair reported is swept once more for its assignment
                sweep = _leibniz_pair(formula_family[k], u, v, probes[k], model, ctx, cap)
                fp = sweep.first(p.exceeds(p.decode(row, v), sweep.value) & sweep.mask).fingerprint()
            phi = formula_family[k][1]
            first_violation = (f"u=#{u}", f"v=#{v}", f"phi={formula_to_text(phi)}", f"assignment={fp}")
    return Verdict(
        mode=model.mode,
        quantification=quantification,
        rank_bound=rank,
        value_lo=lo,
        value_hi=lo,
        valid=not first_violation,
        notes=("rank-relative",),
        detail=first_violation,
    )


def _leibniz_pair(
    member: tuple[str, Formula], u: int, v: int, probes: dict[int, dict], model: SetModel, ctx: EvalContext, cap: int
) -> Sweep:
    """phi(u) -> phi(v) under every assignment of the negated atoms its two
    instances read.  The instances sit where the sides of that sentence
    do, so that keys, paths and evaluation order are the sentence's; each
    is probed once, its options kept in probes by name.  The cap trips on
    their options in reading order, where one probe of the sentence would."""
    var, phi = member
    insts = [(phi, {var: u}, (), (0,), (0,)), (phi, {var: v}, (), (1,), (1,))]
    options: dict[AtomKey, tuple[int, ...]] = {}
    total = 1
    for inst, name in zip(insts, (u, v)):
        read = probes.get(name)
        if read is None:  # probed after the keys read so far, as the sentence reads it
            read = probes[name] = _probe(inst, model, ctx, cap, options, total).options
        for key, opts in read.items():
            if key not in options:
                options[key] = opts
                total *= len(opts)
                if total > cap:
                    raise _cap_exceeded("atom assignments", cap, total)
    values, code = _instance_values([(insts, options)], model, ctx, cap)
    return Sweep(ctx.planes.imp(values[(0,)], values[(1,)]), code, ctx.planes)


# --- subalgebra absoluteness -----------------------------------------------------------


def check_subalgebra_absolute(
    phi: Formula,
    sub_model: SetModel,
    super_model: SetModel,
    embedding: Sequence[int] | None = None,
    ctx_sub: EvalContext | None = None,
) -> Verdict:
    """Restricted negation-free sentences take the same value in a model
    over a subalgebra and in the ambient model (names transported along
    the embedding e): the ambient value is e of the sub value.

    e preserves meet, join, imp, 0 and 1, so it commutes with ||u = v||
    and ||u in v|| (by induction on rank, finite meets, joins and
    implications of entries), the connectives and bounded quantifiers: only
    the sub side is evaluated.  A given map that is no such e raises
    EvalError, as does a predicate atom, whose tables need not agree."""
    if not is_negation_free(phi):
        raise NotNegationFree(formula_to_text(phi))
    if not is_restricted(phi):
        raise NotRestricted(formula_to_text(phi))
    if free_vars(phi):
        raise EvalError("absoluteness check needs a closed formula")
    if _reads_pred(phi):
        raise EvalError("absoluteness check needs a formula without predicate atoms")
    sub, sup = sub_model.algebra, super_model.algebra
    if embedding is None:
        embedding = find_algebra_embedding(sub, sup)
        if embedding is None:
            raise EvalError("no algebra embedding found")
    elif not preserves_heyting(embedding, sub, sup):
        raise EvalError("the embedding does not preserve meet, join, imp, 0 and 1")
    v_sub = eval_sentence(phi, sub_model.with_flags(bounded_opt=True), EMPTY_ASSIGNMENT, ctx_sub)
    v_super = embedding[v_sub]
    return Verdict(
        mode=super_model.mode,
        quantification=None,
        rank_bound=sub_model.rank_bound,
        value_lo=v_super,
        value_hi=v_super,
        valid=True,
        notes=("rank-relative",),
    )


# --- hat embedding laws -------------------------------------------------------------


def hf_meta_eval(phi: Formula, env: Mapping[str, object]) -> bool:
    """Meta-level truth of a restricted negation-free formula over actual
    hereditarily finite sets (variables bound to HFSet values)."""

    def walk(node: Formula, e: dict) -> bool:
        if isinstance(node, Bot):
            return False
        if isinstance(node, Mem):
            return _hf_of(node.left, e) in _hf_of(node.right, e).elems
        if isinstance(node, Eq):
            return _hf_of(node.left, e) == _hf_of(node.right, e)
        if isinstance(node, And):
            return walk(node.left, e) and walk(node.right, e)
        if isinstance(node, Or):
            return walk(node.left, e) or walk(node.right, e)
        if isinstance(node, Imp):
            return (not walk(node.left, e)) or walk(node.right, e)
        if isinstance(node, Forall):
            parts = bounded_parts(node)
            if parts is None:
                raise NotRestricted(formula_to_text(node))
            bound, body = parts
            return all(
                walk(body, {**e, node.var: m}) for m in _hf_of(bound, e).elems
            )
        if isinstance(node, Exists):
            parts = bounded_parts(node)
            if parts is None:
                raise NotRestricted(formula_to_text(node))
            bound, body = parts
            return any(
                walk(body, {**e, node.var: m}) for m in _hf_of(bound, e).elems
            )
        raise EvalError(f"meta evaluation cannot handle {node!r}")

    def _hf_of(t: Term, e: dict):
        if isinstance(t, Var):
            if t.name not in e:
                raise EvalError(f"unbound meta variable {t.name!r}")
            return e[t.name]
        raise EvalError("meta evaluation handles variables only")

    return walk(phi, dict(env))


def hat_failures(alg: FiniteHeytingAlgebra, instances: Iterable[tuple[bool, str]], limit: int) -> list[str]:
    """The lines of the first limit instances, restricted negation-free
    facts about HF sets, that do not hold, when top = bottom; none, and
    instances unread, otherwise.  By induction on rank, ||x^ = y^|| and
    ||x^ in y^|| are top or bottom as x = y and x in y hold; {bottom, top}
    is closed under the connectives, and a bounded quantifier over x^
    ranges over the hats of x's members at weight top.  So a hat image is
    top exactly when its instance holds, or when top = bottom."""
    if alg.top != alg.bottom:
        return []
    return list(itertools.islice((line for holds, line in instances if not holds), limit))


def check_hat_lemma(
    model: SetModel,
    max_hf_rank: int = 3,
    ctx: EvalContext | None = None,
) -> Verdict:
    """Laws of the check-name embedding of hereditarily finite sets.

    (i)  ||u in hat(v)|| equals the join over x in v of ||u ~ hat(x)||,
         for every name u of rank <= 2;
    (ii) membership and equality of HF sets transfer exactly: u in v iff
         ||hat(u) in hat(v)|| = top, and u = v iff ||hat(u) ~ hat(v)|| = top;
    (iv) restricted negation-free instances hold of HF sets iff their hat
         images get value top.

    (i) is the definition of membership, as every entry of hat(v) has
    weight top.  (ii) and (iv) fail only when top = bottom, and then at
    the instances that do not hold (``hat_failures``), of which the first
    five are listed: no name is made and nothing evaluated.  ctx is not
    read."""
    if model.mode not in ("boolean", "heyting"):
        raise EvalError("hat lemma checks run in boolean or heyting mode")
    alg = model.algebra
    hf_sets = all_hf_sets(max_hf_rank)
    transfer = (
        (holds, f"(ii-{law}) {u} {rel} {v}: meta=False model=True")
        for u in hf_sets
        for v in hf_sets
        for law, rel, holds in (("mem", "in", u in v), ("eq", "=", u == v))
    )
    x, y, w = Var("x"), Var("y"), Var("w")
    templates = [
        Mem(x, y),
        Eq(x, y),
        Forall("w", Imp(Mem(w, x), Mem(w, y))),
        Exists("w", And(Mem(w, x), Eq(w, y))),
    ]
    small = [s for s in hf_sets if s.rank() <= 2]
    reflection = (
        (hf_meta_eval(t, {"x": sx, "y": sy}), f"(iv) {formula_to_text(t)} on {sx},{sy}: meta=False value={alg.top}")
        for t in templates
        for sx in small
        for sy in small
    )
    failures = hat_failures(alg, itertools.chain(transfer, reflection), 5)
    value = alg.bottom if failures else alg.top
    return Verdict(
        mode=model.mode,
        quantification=None,
        rank_bound=model.rank_bound,
        value_lo=value,
        value_hi=value,
        valid=not failures,
        notes=("rank-relative",),
        detail=tuple(failures),
    )


def check_maximum_principle(
    model: SetModel,
    phi: Formula,
    var: str,
    ctx: EvalContext | None = None,
) -> Verdict:
    """If the existential closure holds with value top at this scope, hunt
    for a single scope name witnessing it pointwise."""
    if not is_negation_free(phi):
        raise NotNegationFree(formula_to_text(phi))
    if free_vars(phi) != {var}:
        raise EvalError("maximum principle needs exactly one free variable")
    if not check_refinable(model.algebra).refinable:
        raise NotRefinable("algebra failed the refinability search")
    ctx = ctx or EvalContext(model)
    alg = model.algebra
    vec = ctx.vector(phi, {}, var, ctx.domain(model.scope), model)
    values = [(nid, ctx.planes.decode(vec, nid)) for nid in model.scope]
    total = alg.join_all(value for _, value in values)
    witness = next((nid for nid, value in values if value == alg.top), None)
    if witness is not None:
        notes, detail = (), (f"witness=#{witness}",)
    elif total != alg.top:
        notes, detail = ("existence hypothesis fails at this scope",), ()
    else:
        notes, detail = ("scope exhausted without a pointwise witness",), ()
    return Verdict(
        mode=model.mode,
        quantification=None,
        rank_bound=model.rank_bound,
        value_lo=total,
        value_hi=total,
        valid=witness is not None or total != alg.top,
        notes=("rank-relative", *notes),
        detail=detail,
    )
