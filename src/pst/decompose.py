"""The instance decomposition of ``check_valid``.

A sentence that opens with a run of forall and & (a meet prefix) is the
meet of its ground instances, one with a run of exists and | (a join
prefix) their join.  Instances that read no negated atom in common are
independent: the sentence's assignments are the product of theirs.  So
the instances are split into components that share no key, each swept
on its own under the cap, and the components are combined as sets of
values (Avron & Lev's static/dynamic split of non-deterministic
matrices; the trivial case of bucket elimination).

The innermost quantifier of the prefix is not expanded name by name: a
fold probes its body for every name at once (a row), and the positions
whose keys no other instance reads fall into classes by the values they
read, each class swept once.  Where a second quantifier directly
encloses it (a grid), the rows are the names of that quantifier, and a
key symmetric in the two variables links a position with its mirror.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from typing import Callable, Iterator, Mapping, Sequence

from .algebra import FiniteHeytingAlgebra
from .errors import CapExceeded
from .kernel import Vector
from .syntax import And, Eq, Exists, Forall, Formula, Mem, NameConst, Or, bounded_parts, iff_sides, subformulas
from .valuation import (
    EMPTY_ASSIGNMENT,
    KEY_CAP,
    AssignmentIndex,
    AtomKey,
    EvalContext,
    OccKey,
    SetModel,
    Sweep,
    _bits,
    _cap_exceeded,
    _component,
    _Deferred,
    _eval,
    _Fold,
    _Instance,
    _Join,
    _lowest,
    _Probe,
    _probe,
    _reads_pred,
)


def _key_cap(count: int) -> CapExceeded:
    return CapExceeded(f"more than {KEY_CAP} negated ground atoms", cap="KEY_CAP", limit=KEY_CAP, predicted=count)


def _opens(node: Formula, meet: bool, model: SetModel) -> bool:
    """node continues a meet prefix (forall, &) or a join prefix (exists, |);
    a bounded quantifier under bounded_opt and a <-> end it."""
    if isinstance(node, Forall if meet else Exists):
        return not model.bounded_opt or bounded_parts(node) is None
    if meet:
        return isinstance(node, And) and iff_sides(node) is None
    return isinstance(node, Or)


def _reaches(node: Formula, meet: bool, model: SetModel) -> bool:
    """A quantifier of the prefix lies at or below node."""
    if not _opens(node, meet, model):
        return False
    if isinstance(node, (Forall, Exists)):
        return True
    return _reaches(node.left, meet, model) or _reaches(node.right, meet, model)


def _slots(key: AtomKey) -> tuple[int, ...]:
    if key[0] in ("eq", "mem"):
        return key[1:]
    return key[2] if len(key) == 3 else ()


def _rebuild(key: AtomKey, slots: Sequence[int]) -> AtomKey:
    if key[0] == "eq":
        a, b = slots
        return ("eq", a, b) if a <= b else ("eq", b, a)
    if key[0] == "mem":
        return ("mem", *slots)
    return ("pred", key[1], tuple(slots)) if len(key) == 3 else key


def _constants(node: Formula) -> set[int]:
    """The names node's eq and mem atoms hold as constants."""
    return {
        t.ref
        for sub in subformulas(node)
        if sub.__class__ is Eq or sub.__class__ is Mem
        for t in (sub.left, sub.right)
        if t.__class__ is NameConst
    }


_X, _Y = -2, -1  # the row's and the position's name in a shape


def _shape(pattern: AtomKey, row: int | None) -> AtomKey:
    """A pattern (-1 at the position's name) with the row's name as -2."""
    return _rebuild(pattern, [_X if s == row else s for s in _slots(pattern)])


def _transpose(shape: AtomKey) -> AtomKey:
    return _rebuild(shape, [_Y if s == _X else _X if s == _Y else s for s in _slots(shape)])


def _placer(shape: AtomKey, mirror: bool) -> Callable[[int | None, int], AtomKey]:
    """The function (a, y) -> the key of shape at row a and position y, or
    at the mirror (y, a)."""
    x_slot, y_slot = (_Y, _X) if mirror else (_X, _Y)
    slots = _slots(shape)
    consts = tuple(s for s in slots if s >= 0)
    where = [0 if s == x_slot else 1 if s == y_slot else 2 + consts.index(s) for s in slots]
    if shape[0] == "eq":
        i, j = where
        if {i, j} == {0, 1}:
            return lambda a, y: ("eq", a, y) if a <= y else ("eq", y, a)

        def eq(a: int | None, y: int) -> AtomKey:
            src = (a, y, *consts)
            left, right = src[i], src[j]
            return ("eq", left, right) if left <= right else ("eq", right, left)

        return eq
    if shape[0] == "mem":
        i, j = where
        return lambda a, y: ("mem", *((a, y, *consts)[k] for k in (i, j)))
    return lambda a, y: ("pred", shape[1], tuple((a, y, *consts)[k] for k in where))


def _unify(shape: AtomKey, key: AtomKey) -> list[tuple[int | None, int]]:
    """The (row, position) names at which shape is key."""
    if shape[0] != key[0] or len(shape) != len(key) or (key[0] == "pred" and shape[1] != key[1]):
        return []
    slots, ids = _slots(shape), _slots(key)
    if len(slots) != len(ids):
        return []
    out = []
    for order in ((ids, ids[::-1]) if key[0] == "eq" else (ids,)):
        bound: dict[int, int] = {}
        if all(bound.setdefault(s, i) == i if s < 0 else s == i for s, i in zip(slots, order)):
            pair = (bound.get(_X), bound[_Y]) if _Y in bound else None
            if pair is not None and pair not in out:
                out.append(pair)
    return out


def _collide(shapes: Sequence[AtomKey], others: Sequence[AtomKey]) -> bool:
    """Some shape of one grid can be a shape of another at positions that
    are not special: every slot pairs two names or two equal constants."""
    for s in shapes:
        for t in others:
            if s[0] != t[0] or len(s) != len(t) or (s[0] == "pred" and s[1] != t[1]):
                continue
            a, b = _slots(s), _slots(t)
            if len(a) != len(b):
                continue
            for order in ((b, b[::-1]) if s[0] == "eq" else (b,)):
                if all((u < 0) == (v < 0) and (u < 0 or u == v) for u, v in zip(a, order)):
                    return True
    return False


class _Placement:
    """Where a class's representative component sits, so that its sweep
    serves each member (row, position): its keys, its instances' ranks and
    their occurrence keys, placed at the member's names."""

    def __init__(self, grid: _Grid, roles: list[tuple[AtomKey, bool]], rep: tuple, mirrors: list[bool]):
        self.grid = grid
        # per key of the sweep: its shape placed at the row (a, y) or at its mirror
        self.placers = [_placer(shape, mirror) for shape, mirror in roles]
        self.rep = rep  # the representative's names, as its trail holds them
        self.mirrors = mirrors  # per instance of the sweep: whether it is the mirror

    def names(self, member: tuple, mirror: bool) -> tuple:
        a, y = member
        if self.grid.outer is None:
            return (y,)
        return (y, a) if mirror else (a, y)

    def occ(self, key: OccKey, member: tuple) -> OccKey:
        _, path, trail = key
        n, width = len(self.grid.trail), len(self.rep)
        names = self.names(member, trail[n : n + width] != self.rep)
        return ("occ", path, trail[:n] + names + trail[n + width :])


class _Group:
    """Components that share one sweep: a component of scalar instances
    (one member, None), or every member (row, position) of a grid class,
    kept as (row, mask of positions) spans."""

    def __init__(self, sweep: Sweep, place: _Placement | None = None):
        self.sweep = sweep
        self.place = place
        self.spans: list[tuple[int | None, int]] = []

    @property
    def count(self) -> int:
        return sum(mask.bit_count() for _, mask in self.spans) if self.place is not None else 1

    @functools.cached_property
    def members(self) -> list:
        if self.place is None:
            return [None]
        return [(a, y) for a, mask in self.spans for y in _bits(mask)]

    @functools.cached_property
    def keys(self) -> list[list[AtomKey]]:
        """Per key digit of the sweep, its atom key at each member."""
        if self.place is None:
            return [[key] for key in self.sweep.code.keys]
        return [[at(a, y) for a, y in self.members] for at in self.place.placers]

    def orders(self) -> list[list[tuple]]:
        """Per occurrence digit of the sweep, the evaluation rank at each
        member of the instance whose occurrence it chooses."""
        place = self.place
        if place is None:
            return [[order] for order in self.sweep.code.orders]
        return [[place.grid.order(place.names(m, mirror)) for m in self.members] for mirror in place.mirrors]

    def prefix(self, alive: int, p: int, width: int) -> int:
        """The positions of alive whose first width digits are position
        p's."""
        head = self.sweep.code.digits(p)[:width]
        return sum(1 << i for i in _bits(alive) if self.sweep.code.digits(i)[:width] == head)

    def collect(self, i: int, picked: Sequence[int], atoms: list, occs: list) -> None:
        """The choices at position i of the members picked (their indices),
        added to atoms and occs."""
        asg = self.sweep.decode(i)
        for column, (_, value) in zip(self.keys, asg.atoms):
            atoms += zip(map(column.__getitem__, picked), itertools.repeat(value))
        if self.place is None:
            occs += asg.occs
            return
        for key, choice in asg.occs:
            occs += ((self.place.occ(key, self.members[j]), choice) for j in picked)


def _classes(mask: int, reads: Sequence[Vector]) -> list[int]:
    """mask split into the positions that read one value at every read
    vector."""
    classes = [mask]
    seen = set()
    for vec in reads:
        if vec.__class__ is int or id(vec) in seen:
            continue
        seen.add(id(vec))
        for plane in vec:
            classes = [m for c in classes for m in (c & plane, c & ~plane) if m]
    return classes


class _Grid:
    """The instances of q's body at every name of the scope bound to q's
    variable (the positions): on one row, or, when q is outer's body, on
    one row per name bound to outer's variable.

    Each row is probed once by a fold (``_Fold`` with a probe).  Its
    negated atoms' patterns, with the row's name as -2, are its shapes.
    Every row not at a special name has the same shapes, and the key of a
    shape at a position (a, y) names a and y, so it is read only at (a, y)
    and, when the transposed shape is a shape too, at its mirror (y, a).
    The positions at a special name (a constant of the shapes, or one that
    another grid's shapes hold), the diagonal where there are special
    names, and the positions whose keys a scalar instance reads go to the
    scalar instances; the rest are clean.  Clean positions that read the same values, at names in the
    same order relative to the special names, have components that are
    the same up to their names: one representative is swept per class."""

    def __init__(
        self,
        outer: Forall | Exists | None,
        q: Forall | Exists,
        env: dict,
        trail: tuple,
        path: tuple,
        leaf: int,
        split: _Split,
    ):
        self.outer = outer
        self.q = q
        self.env = env
        self.trail = trail
        self.path = path
        self.leaf = leaf
        self.split = split
        self.index = {nid: i for i, nid in enumerate(split.model.scope)}
        self.rows = list(split.model.scope) if outer is not None else [None]
        self.dom = split.ctx.domain(split.model.scope).mask
        self.folds: dict[int | None, _Fold] = {}  # per class of rows: its first row's fold
        self.serve: dict[int | None, int | None] = {}  # row -> the row whose folds serve it
        self.live = True
        self.star: tuple[AtomKey, ...] = ()
        self.consts: set[int] = set()
        self.linked = False
        self.generic: set[int | None] = set()
        self.shapes: set[AtomKey] = set()
        self.forced: dict[int | None, int] = {}  # row -> positions sent to the scalar instances
        self.memo: dict[tuple, _Group] = {}

    def order(self, names: tuple) -> tuple:
        return (self.leaf, *(self.index[nid] for nid in names))

    def instance(self, names: tuple) -> _Instance:
        if self.outer is None:
            (y,) = names
            return (self.q.body, {**self.env, self.q.var: y}, self.trail + names, self.path + (0,), self.order(names))
        a, y = names
        env = {**self.env, self.outer.var: a, self.q.var: y}
        return (self.q.body, env, self.trail + names, self.path + (0, 0), self.order(names))

    def _fold(self, var: str, env: Mapping[str, int]) -> _Fold:
        split = self.split
        ctx = split.ctx
        fold = _Fold(var, ctx.domain(split.model.scope), ctx.planes, _Probe(split.model, ctx, split.cap))
        path = self.path + ((0,) if self.outer is None else (0, 0))
        _eval(self.q.body, {k: v for k, v in env.items() if k != var}, self.trail, path, split.model, fold, ctx)
        return fold

    def probe(self) -> None:
        """Probe one row per class of indiscernible names and find the
        common shapes; a row with a key that every position reads, or rows
        without common shapes that name both the row and the position, make
        the grid scalar.

        Rows a and a' of one class read equal eq/mem values at every
        position (||a = y|| = ||a' = y||, and likewise for membership both
        ways), so the fold of the class's first row serves every member, and
        its shapes, with the row as -2, are theirs.  A body that reads a
        predicate, whose table need not respect the classes, is folded row
        by row, as is a row at a name the keys may hold as a constant (bound
        outside the grid, or named in the body)."""
        model, ctx = self.split.model, self.split.ctx
        by_class = not _reads_pred(self.q.body)
        if by_class:
            ctx.classes(model)  # also shares the kernel's rows in a single-row grid
        pinned = {*self.env.values(), *_constants(self.q.body)} if self.outer is not None else ()
        first: dict[tuple, int | None] = {}
        for i, a in enumerate(self.rows):
            own = a is None or not by_class or a in pinned  # a class of its own
            r = self.serve[a] = first.setdefault((a, True) if own else (ctx.kernel.rep(a), False), a)
            if r != a:
                continue
            fold = self._fold(self.q.var, self.env if a is None else {**self.env, self.outer.var: a})
            if i == 0:
                self.split.count(len(self.rows) * len(model.scope) * (len(fold.patterns) + len(fold.probe.options)))
            if fold.probe.options:
                self.live = False
                return
            self.folds[a] = fold
        shapes = {r: tuple(_shape(p, r) for p in fold.patterns) for r, fold in self.folds.items()}
        if self.outer is None:
            (self.star,) = shapes.values()
        else:
            self.star, count = collections.Counter(shapes[r] for r in self.serve.values()).most_common(1)[0]
            if count < 2 or not all(_X in _slots(s) and _Y in _slots(s) for s in self.star):
                self.live = False
                return
            self.linked = any(_transpose(s) in self.star for s in self.star)
        self.generic = {a for a, r in self.serve.items() if shapes[r] == self.star}
        self.shapes = set(self.star)
        self.consts = {i for s in self.shapes for i in _slots(s) if i >= 0}

    def settle(self, special: set[int]) -> list[tuple]:
        """Fix the special names; the names of the positions that are not
        clean, which go to the scalar instances."""
        self.special = sorted(special)
        self.special_mask = sum(1 << i for i in special)
        # without constants the diagonal's keys name one row alone
        self.diagonal = self.outer is not None and not special
        self.scalar_rows = sum(1 << a for a in self.rows if a is not None and (a not in self.generic or a in special))
        out = []
        for a in self.rows:
            self.forced[a] = 0
            out += ((y,) if a is None else (a, y) for y in _bits(self.dom & ~self.clean(a)))
        return out

    def clean(self, a: int | None) -> int:
        if a is None:
            return self.dom & ~self.special_mask & ~self.forced[a]
        if self.scalar_rows >> a & 1:
            return 0
        diagonal = 0 if self.diagonal else 1 << a
        return self.dom & ~self.special_mask & ~self.scalar_rows & ~diagonal & ~self.forced[a]

    def claim(self, key: AtomKey) -> list[tuple]:
        """The clean positions that read key, sent to the scalar instances:
        their names.  (A mirror follows when the key that links it is
        probed in turn.)"""
        out = []
        for shape in self.shapes:
            for a, y in _unify(shape, key):
                if y not in self.index or (a not in self.index if self.outer is not None else a is not None):
                    continue
                if self.clean(a) >> y & 1:
                    self.forced[a] |= 1 << y
                    out.append((y,) if a is None else (a, y))
        return out

    def classes(self) -> list[_Group]:
        """The clean positions by class (a linked grid's from the row's
        side only, the mirror's position being its partner).  The
        positions are split by the values they read once per class of
        rows; each member row intersects those parts with its own clean
        positions and bounds."""
        planes = self.split.ctx.planes
        out = []
        parts: dict[int | None, tuple[list[tuple[int, tuple]], bool]] = {}
        for a in self.rows:
            mask = self.clean(a)
            r = self.serve[a]
            fold = self.folds[r]
            if self.diagonal and mask >> a & 1:  # (a, a): the row's reads at a
                key = ("diagonal", tuple(planes.decode(v, a) for v in fold.reads), a if fold.opaque else None)
                group = self.memo.get(key)
                if group is None:
                    group = self.memo[key] = self._represent(a, a)
                    out.append(group)
                group.spans.append((a, 1 << a))
            if a is not None:
                mask &= ~((2 << a) - 1) if self.linked else ~(1 << a)
            if not mask:
                continue
            if r not in parts:
                parts[r] = self._parts(r)
            split, opaque = parts[r]
            bounds = self.special if a is None else sorted({*self.special, a})
            row_type = () if a is None else tuple(a > c for c in self.special)
            # the positions between two bounds (none lies at one), each
            # with the bounds it lies above
            between = []
            low = 0
            for i, b in enumerate([*bounds, None]):
                high = -1 if b is None else (1 << b) - 1
                between.append((high & ~low, (True,) * i + (False,) * (len(bounds) - i)))
                low = high
            for part, values in split:
                clean = part & mask
                if not clean:
                    continue
                for span, above in between:
                    m = clean & span
                    if not m:
                        continue
                    key = (values, row_type, above, a if opaque else None)
                    group = self.memo.get(key)
                    if group is None:
                        group = self.memo[key] = self._represent(a, _lowest(m))
                        out.append(group)
                    group.spans.append((a, m))
        return out

    def _parts(self, r: int | None) -> tuple[list[tuple[int, tuple]], bool]:
        """The positions split by the values that row r's folds (and, in a
        linked grid, its column's) read there, each part with those values;
        and whether a read is opaque."""
        fold = self.folds[r]
        reads, opaque = list(fold.reads), fold.opaque
        if self.linked:
            col = self._fold(self.outer.var, {**self.env, self.q.var: r})
            reads += col.reads
            opaque = opaque or col.opaque
        planes = self.split.ctx.planes
        return [(m, tuple(planes.decode(v, _lowest(m)) for v in reads)) for m in _classes(self.dom, reads)], opaque

    def _represent(self, a: int | None, y0: int) -> _Group:
        """The sweep of the component at (a, y0), and how its keys, ranks
        and occurrences sit at the names (a, y0)."""
        split = self.split
        names = (y0,) if a is None else (a, y0)
        instances = [self.instance(names)]
        if self.linked and y0 != a:
            instances.append(self.instance((y0, a)))
        sweep = split.sweep(instances)
        placed = {
            _placer(shape, mirror)(a, y0): (shape, mirror) for shape in self.star for mirror in {False, self.linked}
        }
        roles = [placed[key] for key in sweep.code.keys]
        mirrors = [order != self.order(names) for order in sweep.code.orders]
        return _Group(sweep, _Placement(self, roles, names, mirrors))


class _Split:
    """The instance decomposition of phi's prefix (meet or join): its
    instances and grids in evaluation order (``_leaves``); ``groups``
    sweeps its components."""

    def __init__(self, phi: Formula, model: SetModel, ctx: EvalContext, meet: bool, cap: int):
        self.model = model
        self.ctx = ctx
        self.meet = meet
        self.cap = cap
        self.phi = phi
        self.reads = 0
        scope = model.scope
        self.gridded = ctx.folds and len(scope) > 1 and all(s < t for s, t in zip(scope, scope[1:]))
        self._leaf = itertools.count()

    def _unbounded(self, node: Formula) -> bool:
        """node ranges over the scope alone: a fold reads every range it
        needs, whereas a bounded range under bounded_opt depends on the
        names bound."""
        return not self.model.bounded_opt or all(
            bounded_parts(n) is None for n in subformulas(node) if isinstance(n, (Forall, Exists))
        )

    def count(self, reads: int) -> None:
        self.reads += reads
        if self.reads > KEY_CAP:
            raise _key_cap(self.reads)

    def _leaves(self, node: Formula, env: dict, trail: tuple, path: tuple) -> Iterator[_Instance | _Grid]:
        """The instances and grids below node, in evaluation order."""
        model, meet = self.model, self.meet
        free = self.ctx.choice_free(node, model.mode)
        if free or not _opens(node, meet, model):
            if not free:  # its first negated atom, counted before the instances pile up
                self.count(1)
            yield (node, env, trail, path, (next(self._leaf),))
            return
        if isinstance(node, (And, Or)):
            yield from self._leaves(node.left, env, trail, path + (0,))
            yield from self._leaves(node.right, env, trail, path + (1,))
            return
        body = node.body
        if self.gridded and self._unbounded(body):
            if not _reaches(body, meet, model):
                yield _Grid(None, node, env, trail, path, next(self._leaf), self)
                return
            if isinstance(body, (Forall, Exists)) and body.var != node.var and not _reaches(body.body, meet, model):
                yield _Grid(node, body, env, trail, path, next(self._leaf), self)
                return
        expected = self.reads + len(model.scope) * self._instances(body)
        if expected > KEY_CAP:  # before the instances are built
            raise _key_cap(expected)
        for nid in model.scope:
            yield from self._leaves(body, {**env, node.var: nid}, trail + (nid,), path + (0,))

    def _instances(self, node: Formula) -> int:
        """The instances with negation choices that expanding node gives."""
        if self.ctx.choice_free(node, self.model.mode):
            return 0
        if not _opens(node, self.meet, self.model):
            return 1
        if isinstance(node, (And, Or)):
            return self._instances(node.left) + self._instances(node.right)
        return len(self.model.scope) * self._instances(node.body)

    def sweep(self, instances: Sequence[_Instance]) -> Sweep:
        """The sweep of a component: its instances probed, in order."""
        probes = [_probe(inst, self.model, self.ctx, self.cap) for inst in instances]
        options = {key: opts for probe in probes for key, opts in probe.options.items()}
        return self._component(sorted(instances, key=lambda inst: inst[4]), options)

    def _component(self, instances: Sequence[_Instance], options: Mapping[AtomKey, tuple[int, ...]]) -> Sweep:
        total = math.prod(map(len, options.values()))
        if total > self.cap:
            raise _cap_exceeded("atom assignments", self.cap, total)
        return _component(instances, options, self.meet, self.model, self.ctx, self.cap)

    def groups(self) -> list[_Group]:
        """Every component, swept: the scalar instances joined where they
        share a key, each grid class once, and the choice-free values as
        one component of one position.  The leaves are probed in
        evaluation order, so that an error is the one evaluation meets
        first."""
        model, ctx = self.model, self.ctx
        join = _Join(model, ctx, self.cap)
        consts = []
        grids = []
        for leaf in self._leaves(self.phi, {}, (), ()):
            if leaf.__class__ is _Grid:
                leaf.probe()
                grids.append(leaf)
            elif ctx.choice_free(leaf[0], model.mode):
                consts.append(_eval(leaf[0], leaf[1], leaf[2], leaf[3], model, EMPTY_ASSIGNMENT, ctx))
            else:
                self.count(len(join.add(leaf)) - 1)
        live = [grid for grid in grids if grid.live]
        for i, grid in enumerate(live):
            for other in live[i + 1 :]:
                if _collide(grid.star, other.star):
                    grid.live = other.live = False
        live = [grid for grid in live if grid.live]
        special = {c for grid in live for c in grid.consts}
        pending = []
        for grid in grids:
            if grid.live:
                pending += map(grid.instance, grid.settle(special))
            else:
                pending += (grid.instance((y,) if a is None else (a, y)) for a in grid.rows for y in model.scope)
        # a key that a clean grid position reads sends that position to the
        # scalar instances too
        i = 0
        while i < len(join.probes) or pending:
            if i == len(join.probes):
                join.add(pending.pop())
            for key in join.probes[i][1]:
                for grid in live:
                    pending += map(grid.instance, grid.claim(key))
            i += 1
        groups = [_Group(self._component(*group)) for group in join.groups()]
        for grid in live:
            groups += grid.classes()
        if consts:
            combine = model.algebra.meet_ if self.meet else model.algebra.join_
            value = functools.reduce(combine, consts)
            groups.append(_Group(Sweep(value, AssignmentIndex({}, ctx.planes), ctx.planes)))
        return groups


class _Reach:
    """The values op combines from one value of each part, given the count
    of parts with each value set (a mask over the elements).  op is
    idempotent, so c copies of a set reach what min(c, |A|) copies do: the
    reach is kept by those capped counts."""

    def __init__(self, alg: FiniteHeytingAlgebra, meet: bool):
        self.table = [[1 << v for v in row] for row in (alg.lattice.meet if meet else alg.lattice.join)]
        self.unit = 1 << (alg.top if meet else alg.bottom)
        self.most = alg.size
        self.memo: dict[tuple, int] = {}

    def __call__(self, counts: Mapping[int, int]) -> int:
        key = tuple(sorted((s, min(c, self.most)) for s, c in counts.items() if c))
        if key not in self.memo:
            out, table = self.unit, self.table
            for s, c in key:
                ys = _bits(s)
                for _ in range(c):  # a copy that adds nothing ends the growth
                    last, out = out, functools.reduce(int.__or__, (table[x][y] for x in _bits(out) for y in ys))
                    if out == last:
                        break
            self.memo[key] = out
        return self.memo[key]


def _taken(at: Sequence[int], positions: int) -> int:
    """The values taken at some of the positions, as a mask."""
    return sum(1 << e for e, m in enumerate(at) if m & positions)


def _descend(groups: Sequence[_Group], wanted: int, reach: _Reach) -> tuple[tuple, tuple]:
    """The lowest position whose value is in wanted (a mask): the digits of
    every part (a component, or a grid member) in rank order, atom keys
    first, each take the least value that still leaves such a position,
    given the values the part can still take and what the others reach.
    A part's positions are in the order of its own digits, so a run of its
    digits takes those of its lowest position that still leaves one, and
    the part keeps the positions that share them."""
    # per part: its group, index there, digit count, positions left, their values; per digit: (rank, part)
    owner, member, digits, alive, sets, keys, orders = [], [], [], [], [], [], []
    for group in groups:
        n, k = len(group.members), len(owner)
        columns = group.orders()
        for column in group.keys:
            keys += zip(column, range(k, k + n))
        for column in columns:
            orders += zip(column, range(k, k + n))
        owner += [group] * n
        member += range(n)
        digits += [len(group.keys) + len(columns)] * n
        alive += [group.sweep.mask] * n
        sets += [_taken(group.sweep.at, group.sweep.mask)] * n
    counts = collections.Counter(sets)
    fixed = [0] * len(owner)
    # per element x: the values v with op(x, v) in wanted; sure: those that fit whatever the others reach
    fits = [sum(1 << v for v, value in enumerate(row) if value & wanted) for row in reach.table]
    sure = functools.reduce(int.__and__, fits)
    runs = [(k, len(list(run))) for k, run in itertools.groupby(k for _, k in [*sorted(keys), *sorted(orders)])]
    i = 0
    while i < len(runs):
        k, width = runs[i]
        fixed[k] += width
        group, s, at = owner[k], sets[k], owner[k].sweep.at
        counts[s] -= 1
        p = _lowest(alive[k])
        if not _taken(at, 1 << p) & sure:
            fit = functools.reduce(int.__or__, map(fits.__getitem__, _bits(reach(counts))))
            p = _lowest(alive[k] & sum(at[v] for v in _bits(s & fit)))
        kept = 1 << p if fixed[k] == digits[k] else group.prefix(alive[k], p, fixed[k])
        new = _taken(at, kept)
        # the next runs of untouched whole parts of the group are at k's
        # state, and take its step while the others' reach stays: while s
        # keeps more than |A| copies and new has |A| already
        repeats = len(runs) if new == s else counts[s] - reach.most if counts[new] >= reach.most else 0
        done = i + 1
        while done - i <= repeats and done < len(runs) and width == digits[k] == runs[done][1] and (
            owner[runs[done][0]] is group
        ):
            done += 1
        for j, _ in runs[i:done]:
            alive[j], sets[j] = kept, new
        counts[s] -= done - i - 1
        counts[new] += done - i
        i = done
    picks: dict[tuple, list[int]] = {}  # (group, position) -> the members that take it
    for group, j, mask in zip(owner, member, alive):
        picks.setdefault((group, _lowest(mask)), []).append(j)
    atoms, occs = [], []
    for (group, i), picked in picks.items():
        group.collect(i, picked, atoms, occs)
    return tuple(sorted(atoms)), tuple(sorted(occs))


def split_values(phi: Formula, model: SetModel, ctx: EvalContext, cap: int) -> tuple[set[int], int, object, object]:
    """The values phi takes, its number of assignments, and its witness and
    falsifier (or None), the lowest positions in enumeration order whose
    value is top and is not (``_descend``); its prefix is read as a meet
    unless it opens with exists or |."""
    meet = not isinstance(phi, (Exists, Or))
    groups = _Split(phi, model, ctx, meet, cap).groups()
    reach = _Reach(model.algebra, meet)
    counts: collections.Counter = collections.Counter()
    count = 1
    for group in groups:
        counts[_taken(group.sweep.at, group.sweep.mask)] += group.count
        count *= group.sweep.size**group.count
    if not count:
        return set(), 0, None, None
    values = set(_bits(reach(counts)))
    top = model.algebra.top
    witness = _Deferred(functools.partial(_descend, groups, 1 << top, reach)) if top in values else None
    falsifier = _Deferred(functools.partial(_descend, groups, ~(1 << top), reach)) if values - {top} else None
    return values, count, witness, falsifier
