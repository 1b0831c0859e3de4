"""Rank-bounded validity checks for the set-theoretic axiom schemas.

Each check follows the explicit witness construction behind the axiom's
validity proof, rather than evaluating the raw prenex sentence; this
mirrors the proofs and avoids scope-explosion artifacts.  Every report is
rank-relative.

Pairing, union, emptyset, extensionality, powerset, the comprehension
refutation, infinity reflection, and separation, collection and induction
by a formula with no negation choice and no predicate atom are decided: an
identity of the definitions of membership and equality, or Leibniz's law,
fixes the value, and each check makes its first witness name and reports
it.  Only where the law can fail is a value computed: separation by any
other formula computes its values over the scope, collection by one counts
its assignments, and induction by one, or over a scope not closed under
children, sweeps its schema.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded
from .names import all_hf_sets
from .syntax import (
    And,
    Exists,
    Forall,
    Formula,
    Imp,
    Mem,
    Var,
    formula_to_text,
    free_vars,
    subformulas,
    substitute,
)
from .valuation import (
    ASSIGNMENT_CAP,
    EMPTY_ASSIGNMENT,
    EvalContext,
    EvalError,
    Planes,
    SetModel,
    Sweep,
    Vector,
    _Domain,
    _eval,
    _Probe,
    _joined_values,
    hat_failures,
    hf_meta_eval,
    sweep_assignments,
)

POWERSET_CAP = 4096


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    model_summary: str
    rank_bound: int
    witnesses: tuple[tuple[str, int], ...]
    value: int
    valid: bool
    quantification: str | None
    n_assignments: int
    notes: tuple[str, ...] = ()

    def result_line(self) -> str:
        quant = self.quantification or "none"
        return (
            f"RESULT axiom={self.axiom} rank={self.rank_bound} quant={quant} "
            f"value={self.value} valid={'yes' if self.valid else 'no'}"
        )


def _summary(model: SetModel) -> str:
    kind = model.structure.kind if model.structure is not None else "algebra"
    return f"{model.mode}/{kind} over {model.algebra.size} elements"


def _report(
    model: SetModel,
    axiom: str,
    value: int,
    valid: bool,
    quantification: str | None = None,
    witnesses: Sequence[tuple[str, int]] = (),
    n_assignments: int = 1,
    notes: Sequence[str] = (),
) -> AxiomReport:
    return AxiomReport(
        axiom=axiom,
        model_summary=_summary(model),
        rank_bound=model.rank_bound,
        witnesses=tuple(witnesses),
        value=value,
        valid=valid,
        quantification=quantification,
        n_assignments=n_assignments,
        notes=tuple(notes) + ("rank-relative",),
    )


def _targets(model: SetModel, u: int | None, ctx: EvalContext) -> list[int]:
    """The targets: u, or every scope name once the scope's classes are
    computed, so that the kernel reads every target by its class's rows."""
    if u is not None:
        return [u]
    ctx.classes(model)
    return list(model.scope)


# --- pairing -------------------------------------------------------------------


def check_pairing(
    model: SetModel,
    u: int | None = None,
    v: int | None = None,
    ctx: EvalContext | None = None,
) -> AxiomReport:
    """The two-element name w = {<u,1>, <v,1>} realises z in w <-> (z = u | z = v).

    By the definition of membership, ||z in w|| = (top ^ ||u = z||) v
    (top ^ ||v = z||): the column of w is eqrow(u) | eqrow(v), so the
    biconditional is top at every z and for every pair, and nothing is
    computed.  The witness is made for the given pair, else for the first
    pair, scope[0] twice; ctx is not read."""
    alg = model.algebra
    pairs = [(u, v)] if u is not None and v is not None else [(x, x) for x in model.scope[:1]]
    witnesses = [("w", model.store.mk_name([(uu, alg.top), (vv, alg.top)])) for uu, vv in pairs]
    return _report(model, "pairing", alg.top, True, witnesses=witnesses)


# --- union ---------------------------------------------------------------------


def check_union(
    model: SetModel,
    u: int | None = None,
    ctx: EvalContext | None = None,
) -> AxiomReport:
    """The union name w, with w(x) = join over children c of u of
    u(c) ^ c(x), realises y in w <-> exists t . (t in u & y in t).

    By the definition of membership and distributivity the column of w is

        ||y in w|| = join over x, c of u(c) ^ c(x) ^ ||x = y||
                   = join over c in dom(u) of u(c) ^ ||y in c||,

    which is ||exists t . (t in u & y in t)|| by the bounded lemma: t = c
    gives >=, and ||t in u|| ^ ||y in t|| <= join over c of
    u(c) ^ ||c = t|| ^ ||y in t|| <= the same join by substitution
    (dom(u) lies in the scope, which is closed under children).  So the
    biconditional is top at every y and every target, and nothing is
    computed.  The witness is made for u, else for scope[0]; ctx is not
    read."""
    alg = model.algebra
    store = model.store
    witnesses = []
    for uu in [u] if u is not None else model.scope[:1]:
        dom: dict[int, int] = {}
        for child, weight in store.get(uu).entries:
            for x, vx in store.get(child).entries:
                dom[x] = alg.join_(dom.get(x, alg.bottom), alg.meet_(weight, vx))
        witnesses.append(("w", store.mk_name(sorted(dom.items()))))
    return _report(model, "union", alg.top, True, witnesses=witnesses)


# --- separation -----------------------------------------------------------------


def check_separation(
    model: SetModel,
    phi: Formula,
    var: str,
    u: int | None = None,
    quantification: str = "all_assignments",
    ctx: EvalContext | None = None,
    cap: int = ASSIGNMENT_CAP,
) -> AxiomReport:
    """dom(w) = dom(u) with w(x) = ||x in u|| ^ ||phi(x)|| realises
    z in w <-> (z in u & phi(z)), per negation assignment.

    A phi with no negation choice and no predicate atom is a congruence,
    ||x = z|| ^ phi(x) <= phi(z) (``check_leibniz``), so for every target
    and every name z, ||z in w|| = join over x in dom(u) of
    ||x in u|| ^ phi(x) ^ ||x = z|| is ||z in u|| ^ phi(z): (<=) by
    substitution and the law; (>=) as ||z in u|| is the join over x of
    u(x) ^ ||x = z|| and u(x) <= ||x in u||.  The value is top under one
    assignment: phi is read once, as a vector over the scope and the
    targets' children, for its errors and the first target's witness.

    Otherwise the assignments are those of forall var . phi, and phi at
    each name is one vector over them (``_joined_values``).  Both sides,
    by the definition of membership, are read for every assignment
    position p and scope name z at once, as planes of bit p * width + z
    (``_Blocks``), a run of positions at a time so that a plane stays
    within ``_BLOCK_BITS``:

        lhs(p, z) = join over x in dom(u) of ||x in u|| ^ phi(x)(p) ^ ||x = z||,
        rhs(p, z) = ||z in u|| ^ phi(z)(p),

    the biconditional is met over the targets plane by plane, and over z
    once at the end.  The witness name is made for the first target under
    the first assignment only."""
    if free_vars(phi) != {var}:
        raise EvalError("separation needs a one-free-variable formula")
    ctx = ctx or EvalContext(model)
    store = model.store
    p = ctx.planes
    if ctx.congruent(phi, model.mode):
        targets = list(model.scope) if u is None else [u]
        children = _children(model, targets)
        table = ctx.vector(phi, {}, var, _Domain(list(dict.fromkeys([*model.scope, *children]))), model)
        alg = model.algebra
        witnesses = []
        for uu in targets[:1]:
            w = [(x, alg.meet_(ctx.eval_mem(x, uu), p.decode(table, x))) for x, _ in store.get(uu).entries]
            witnesses.append(("w", store.mk_name(w)))
        return _report(model, "separation", alg.top, True, quantification, witnesses)
    targets = _targets(model, u, ctx)
    children = _children(model, targets)
    names = list(dict.fromkeys([*model.scope, *children]))
    instances = [(phi, {var: x}, (x,), (0,), (i,)) for i, x in enumerate(names)]
    values, code = _joined_values(instances, model, ctx, cap)
    phi_at = {x: values[(i,)] for i, x in enumerate(names)}
    scope = ctx.domain(model.scope)
    width = 8 * (max(names, default=0) // 8 + 1)  # bits per block: whole bytes, every name
    step = max(1, _BLOCK_BITS // width)
    value = [0] * p.width
    for lo in range(0, code.size, step):
        blocks = _Blocks(p, width, lo, min(step, code.size - lo))
        # per child x: (p, z) -> phi(x)(p) ^ ||x = z||
        grid = {x: p.meet(blocks.spread(phi_at[x]), blocks.tile(ctx.kernel.eqrow(x, scope.need))) for x in children}
        phi_z = blocks.transpose({z: phi_at[z] for z in model.scope})
        acc: Vector = p.top
        for uu in targets:
            lhs: Vector = p.bottom
            for x, _ in store.get(uu).entries:
                lhs = p.join(lhs, p.meet(ctx.eval_mem(x, uu), grid[x]))
            rhs = p.meet(blocks.tile(ctx.kernel.memcol(uu, scope.need)), phi_z)
            acc = p.meet(acc, p.meet(p.imp(lhs, rhs), p.imp(rhs, lhs)))
        for k, plane in enumerate(p._planes(acc)):
            value[k] |= blocks.holding(plane, scope.mask) << lo
    witnesses = []
    if code.size and targets:
        w = [(x, p.decode(p.meet(ctx.eval_mem(x, targets[0]), phi_at[x]), 0)) for x, _ in store.get(targets[0]).entries]
        witnesses.append(("w", store.mk_name(w)))
    return _quantified_report(model, "separation", Sweep(tuple(value), code, p), quantification, witnesses)


class _Blocks:
    """Vectors over (assignment position, name) pairs for the positions
    lo .. lo + n - 1: one block of width bits per position, a whole number
    of bytes, bit (p - lo) * width + z holding name z at position p."""

    def __init__(self, planes: Planes, width: int, lo: int, n: int):
        self.planes = planes
        self.width = width
        self.size = width // 8  # bytes per block
        self.lo = lo
        self.n = n
        self.ones = (1 << self.width) - 1
        self.repeat = self.deposit(-1)  # bit 0 of every block

    def deposit(self, mask: int) -> int:
        """Bit p of mask moved to bit p * width, for p < n: the first byte
        of block p holds it."""
        blocks = bytearray(self.n * self.size)
        blocks[:: self.size] = format(mask & (1 << self.n) - 1, f"0{self.n}b")[::-1].encode().translate(_BIT_BYTES)
        return int.from_bytes(blocks, "little")

    def spread(self, v: Vector) -> Vector:
        """A vector over the positions, the same at every name."""
        if v.__class__ is int:
            return v
        return tuple(self.deposit(plane >> self.lo) * self.ones for plane in v)

    def tile(self, row: tuple) -> tuple:
        """A vector over the names, the same at every position."""
        return tuple((plane & self.ones) * self.repeat for plane in row)

    def transpose(self, at: dict[int, Vector]) -> tuple:
        """The vector whose name z holds the vector over the positions
        at[z], built once per distinct plane."""
        out = []
        for k in range(self.planes.width):
            names: dict[int, int] = {}
            for z, v in at.items():
                plane = self.planes._planes(v)[k] >> self.lo & (1 << self.n) - 1
                if plane:
                    names[plane] = names.get(plane, 0) | 1 << z
            out.append(sum(self.deposit(plane) * mask for plane, mask in names.items()))
        return tuple(out)

    def holding(self, plane: int, mask: int) -> int:
        """The positions whose block of plane holds every name of mask, as
        a mask over the positions from lo."""
        bad = ~plane & mask * self.repeat
        # windows[t], at bit i: the OR of bits i .. i + 2^t - 1 of bad
        windows = [bad]
        while 1 << len(windows) <= self.width:
            last = windows[-1]
            windows.append(last | last >> (1 << len(windows) - 1))
        acc, at = 0, 0
        for t in reversed(range(len(windows))):
            if self.width >> t & 1:
                acc |= windows[t] >> at
                at += 1 << t
        # bit 0 of each block, from the first byte of each
        firsts = acc.to_bytes(self.n * self.size, "little")[:: self.size].translate(_LOW_BITS)
        return ~int(firsts[::-1], 2) & (1 << self.n) - 1


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_LOW_BITS = bytes(ord("0") + (b & 1) for b in range(256))
_BLOCK_BITS = 1 << 22


def _children(model: SetModel, targets: Sequence[int]) -> list[int]:
    """The children of the targets, each once, in order."""
    return list(dict.fromkeys(x for uu in targets for x, _ in model.store.get(uu).entries))


def _closed(model: SetModel) -> bool:
    """The scope holds the children of each of its names."""
    inside = set(model.scope)
    return all(c in inside for x in model.scope for c, _ in model.store.get(x).entries)


def _quantified_report(
    model: SetModel, axiom: str, sweep: Sweep, quantification: str, witnesses: Sequence[tuple[str, int]] = ()
) -> AxiomReport:
    value = sweep.lo if quantification == "all_assignments" else sweep.hi
    return _report(model, axiom, value, sweep.valid(quantification), quantification, witnesses, sweep.size)


# --- powerset -------------------------------------------------------------------


def check_powerset(
    model: SetModel,
    u: int | None = None,
    ctx: EvalContext | None = None,
    cap: int = POWERSET_CAP,
) -> AxiomReport:
    """dom(w) enumerates every function dom(u) -> A with
    w(f) = ||forall y in f (y in u)||, the meet over z in dom(u) of
    f(z) -> ||z in u||.  For every name v,

        ||v in w|| = S(v) := meet over z in dom(v) of v(z) -> ||z in u||,

    which is ||forall y (y in v -> y in u)|| by the bounded lemma, so the
    biconditional is top at every v and every target, and nothing is
    computed.  ||v in w|| is the join over f in dom(w) of w(f) ^ ||f = v||.
    (<=) For z in dom(v), w(f) ^ ||f = v|| ^ v(z) <= w(f) ^ ||z in f||,
    the join over c of w(f) ^ f(c) ^ ||c = z||, which is at most the join
    over c of ||c in u|| ^ ||c = z|| <= ||z in u|| by substitution.
    (>=) The candidate a(z) = ||z in u|| ^ ||z in v|| on dom(u) has
    w(a) = top, and ||a = v|| >= S(v), since
    ||z in u|| ^ ||z in v|| <= ||z in a|| by substitution.

    The first target past the cap, in scope order, trips it before any
    name is made; no scope name has more children than the scope has, so
    it is sought only then.  The witness is made for the first target."""
    ctx = ctx or EvalContext(model)
    alg = model.algebra
    store = model.store
    widest = len(ctx._children(ctx.domain(model.scope))) if u is None else len(store.get(u).entries)
    if alg.size**widest > cap:
        for uu in model.scope if u is None else [u]:
            n_funcs = alg.size ** len(store.get(uu).entries)
            if n_funcs > cap:
                msg = f"powerset would need {n_funcs} candidate functions"
                raise CapExceeded(msg, cap="POWERSET_CAP", limit=cap, predicted=n_funcs)
    witnesses = []
    for uu in model.scope[:1] if u is None else [u]:
        dom_u = tuple(c for c, _ in store.get(uu).entries)
        funcs = [store.mk_name(list(zip(dom_u, vals))) for vals in itertools.product(range(alg.size), repeat=len(dom_u))]
        # w(f) for every f, in the order of itertools.product
        w_values = [alg.top]
        for z in dom_u:
            imps = [alg.imp_(a, ctx.eval_mem(z, uu)) for a in range(alg.size)]
            w_values = [alg.meet_(acc, i) for acc in w_values for i in imps]
        witnesses.append(("w", store.mk_name(zip(funcs, w_values))))
    return _report(model, "powerset", alg.top, True, witnesses=witnesses)


# --- extensionality --------------------------------------------------------------


def check_extensionality(model: SetModel, ctx: EvalContext | None = None) -> AxiomReport:
    """forall z (z in x <-> z in y) stays below ||x = y|| for every pair.

    ||x = y|| is by definition the meet over z in dom(x) of
    x(z) -> ||z in y||, met with the same for y and x.  Since
    x(z) <= ||z in x||, each term is at least ||z in x|| -> ||z in y||, so
    once dom(x) and dom(y) lie in the scope, ||forall z (z in x <-> z in
    y)|| over the scope is at most ||x = y||: the implication is top for
    every pair, and nothing is computed.  A scope not closed under children
    raises EvalError; ctx is not read."""
    if not _closed(model):
        raise EvalError("extensionality needs a scope closed under children")
    return _report(model, "extensionality", model.algebra.top, True)


# --- empty set --------------------------------------------------------------------


def check_emptyset(model: SetModel, ctx: EvalContext | None = None) -> AxiomReport:
    """For every admissible value n' of ~(u = u) the one-entry name with
    range {n'} satisfies ||u in w|| = n'.

    In boolean/heyting mode the pseudo-complement forces the single choice
    n' = 0 and the witness is the empty-behaving name.

    By the definition of membership, ||u in {u: n'}|| = n' ^ ||u = u|| =
    n', so the biconditional is top at every target and choice, and
    nothing is computed; every target and choice counts as an assignment.
    The witness is made for scope[0] and the first choice; ctx is not
    read.
    """
    alg = model.algebra
    choices = model.neg_options(alg.top)
    witnesses = [("w", model.store.mk_name([(uu, n)])) for uu in model.scope[:1] for n in choices[:1]]
    return _report(
        model,
        "emptyset",
        alg.top,
        True,
        quantification="all_assignments",
        witnesses=witnesses,
        n_assignments=len(model.scope) * len(choices),
        notes=("witness adapts to each admissible choice of ~(u = u)",),
    )


# --- collection -------------------------------------------------------------------


def check_collection(
    model: SetModel,
    phi: Formula,
    var_x: str,
    var_y: str,
    u: int | None = None,
    quantification: str = "all_assignments",
    ctx: EvalContext | None = None,
    cap: int = ASSIGNMENT_CAP,
) -> AxiomReport:
    """The name with domain the whole scope and constant value top bounds
    the unbounded existential: ||forall x in u exists y phi|| <=
    ||forall x in u exists y in v phi||.  The scope stands in for the
    ordinal-indexed level of the class argument.

    v holds every scope name at top, so ||exists y in v phi|| is
    ||exists y phi|| term by term: each target's right side is its left,
    and the value is top under every assignment.  The assignments are
    those of forall var_x . forall var_y . phi: only their number is read,
    with their cap trips and phi's errors.  Outside comega negated
    compounds it is the running product of the option counts of the atoms
    that the (x, y) instances read, probed in evaluation order, on which
    the cap trips as on one probe of the sentence; with them, phi at each
    pair is a vector over the assignments (``_joined_values``).  A
    choice-free phi without predicates has one assignment: it is read
    once, at (scope[0], scope[0]), so that an unknown name or a function
    term in it is still an error, and u is still checked to be a name.  v
    is made after phi is read: a kernel read indexes the entries of every
    name in the store, and v has one per scope name."""
    if free_vars(phi) != {var_x, var_y}:
        raise EvalError("collection needs a two-free-variable formula")
    ctx = ctx or EvalContext(model)
    alg = model.algebra
    store = model.store
    count = 1
    if ctx.congruent(phi, model.mode):
        if u is not None:
            store.get(u)
        for s in model.scope[:1]:
            _eval(phi, {var_x: s, var_y: s}, (), (), model, EMPTY_ASSIGNMENT, ctx)
    else:
        targets = _targets(model, u, ctx)
        children = _children(model, targets)
        pairs = enumerate(itertools.product(dict.fromkeys([*model.scope, *children]), model.scope))
        instances = ((phi, {var_x: x, var_y: y}, (x, y), (0, 0), (i,)) for i, (x, y) in pairs)
        if model.mode == "comega" and not ctx.compound_free(phi):
            _, code = _joined_values(list(instances), model, ctx, cap)
            count = code.size
        else:
            read: set = set()  # the negated atoms read so far
            for inst in instances:
                # evaluated even when choice-free: a predicate table may lack a cell
                probe = _Probe(model, ctx, cap, read, count)
                _eval(*inst[:4], model, probe, ctx)
                read.update(probe.options)
                count = probe.total
    v_name = store.mk_name([(nid, alg.top) for nid in model.scope])
    valid = quantification == "all_assignments" or count > 0
    notes = ("scope-wide constant-top witness stands in for the class level",)
    return _report(model, "collection", alg.top if valid else alg.bottom, valid, quantification, [("v", v_name)], count, notes)


# --- induction --------------------------------------------------------------------


def check_induction(
    model: SetModel,
    phi: Formula,
    var: str,
    quantification: str = "all_assignments",
    ctx: EvalContext | None = None,
    cap: int = ASSIGNMENT_CAP,
) -> AxiomReport:
    """forall x [(forall y (y in x -> phi(y))) -> phi(x)] -> forall x phi(x)
    at the model scope.

    A phi with no negation choice and no predicate atom gives top over a
    scope closed under children, by induction on rank: with H the
    hypothesis, H <= phi(c) for c in dom(x), so H ^ ||y in x|| <= phi(y)
    by Leibniz's law (``check_leibniz``), and H <= phi(x).  phi is read
    once, as a vector over the scope, for its errors.  Otherwise the schema
    is swept, with a y that is no variable of phi."""
    if free_vars(phi) != {var}:
        raise EvalError("induction needs a one-free-variable formula")
    ctx = ctx or EvalContext(model)
    if ctx.congruent(phi, model.mode) and _closed(model):
        ctx.vector(phi, {}, var, ctx.domain(model.scope), model)
        return _report(model, "induction", model.algebra.top, True, quantification)
    bound = {sub.var for sub in subformulas(phi) if isinstance(sub, (Forall, Exists))}
    fresh_y = var + "_y"  # phi's one free variable is var
    while fresh_y in bound:
        fresh_y += "_"
    phi_y = substitute(phi, var, Var(fresh_y))
    below = Forall(fresh_y, Imp(Mem(Var(fresh_y), Var(var)), phi_y))
    schema = Imp(Forall(var, Imp(below, phi)), Forall(var, phi))
    sweep = sweep_assignments(schema, model, ctx, cap)
    return _quantified_report(model, "induction", sweep, quantification)


# --- comprehension refutation --------------------------------------------------------


def check_comprehension_refuted(model: SetModel, ctx: EvalContext | None = None) -> AxiomReport:
    """||exists x forall y (y in x)|| is bottom when the member variable
    ranges one rank higher than the set variable; the stratified scope is
    the finite surrogate for the class quantifier.

    With U_k the names of rank <= k, the value is the join over x in the
    scope of the meet over y in U_{r+1} of ||y in x||.  Each scope name x
    of rank <= r + 1 is top-equal to a y of U_{r+1} (x itself, when x is
    in U_r), so x's meet is at most ||x in x|| by substitution, and
    ||x in x|| is bottom for every name, by induction on rank:
    x(d) ^ ||d = x|| <= x(d) ^ (x(d) -> ||d in d||) <= ||d in d||.  So
    every meet is bottom, and so is the join; nothing is computed.  A
    scope name of higher rank raises EvalError: there the identity fails
    (x = {t: top | t in U_{r+1}} gives top).  ctx is not read."""
    alg = model.algebra
    if any(model.store.get(x).rank > model.rank_bound + 1 for x in model.scope):
        raise EvalError("comprehension needs scope names of rank at most the rank bound + 1")
    notes = ("degenerate one-element algebra: top equals bottom",) if alg.top == alg.bottom else ()
    notes += (f"member scope rank {model.rank_bound + 1} strictly above set scope",)
    return _report(model, "comprehension-refuted", alg.bottom, True, notes=notes)


# --- infinity (reflection only) -------------------------------------------------------


def check_infinity_reflection(
    model: SetModel,
    max_hf_rank: int = 3,
    ctx: EvalContext | None = None,
) -> AxiomReport:
    """Transfer of restricted negation-free facts to check names.

    The infinity axiom itself needs an infinite witness and is out of desk
    scope; what is verified is that restricted negation-free instances hold
    of HF sets of rank <= 2 exactly when their hat images get value top.
    Hat names take only the values top and bottom, as an instance holds or
    not, so an instance mismatches only when top = bottom, and then when it
    does not hold (``hat_failures``): no hat name is made and no template
    evaluated.  ctx is not read."""
    alg = model.algebra
    small = all_hf_sets(min(max_hf_rank, 2))
    x, y, w = Var("x"), Var("y"), Var("w")
    templates = [
        Mem(x, y),
        Forall("w", Imp(Mem(w, x), Mem(w, y))),
        Exists("w", And(Mem(w, x), Mem(w, y))),
    ]
    instances = (
        (hf_meta_eval(t, {"x": sx, "y": sy}), f"{formula_to_text(t)} on {sx},{sy}: meta=False value={alg.top}")
        for t in templates for sx in small for sy in small
    )
    mismatches = hat_failures(alg, instances, 3)
    return _report(
        model,
        "infinity-reflection",
        alg.bottom if mismatches else alg.top,
        not mismatches,
        n_assignments=len(templates) * len(small) ** 2,
        notes=(
            "the infinity axiom itself needs an infinite witness; only the "
            "restricted-formula reflection is checked",
        )
        + tuple(mismatches),
    )


CHECKS = {
    "pairing": check_pairing,
    "union": check_union,
    "separation": check_separation,
    "powerset": check_powerset,
    "extensionality": check_extensionality,
    "emptyset": check_emptyset,
    "collection": check_collection,
    "induction": check_induction,
    "comprehension": check_comprehension_refuted,
    "infinity": check_infinity_reflection,
}
