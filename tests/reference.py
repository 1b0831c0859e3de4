"""Reference semantics: the plain recursive definitions, kept as the oracle
for the bit-sliced kernel and the vector folds.

    ||u = v||  = meet over (x, a) in u of a -> ||x in v||
                 meet over (y, b) in v of b -> ||y in u||
    ||u in v|| = join over (x, a) in v of a ^ ||x = u||

``Reference.eval`` evaluates a choice-free formula by the textbook
clauses, one instance at a time: negation is the pseudo-complement, and a
bounded quantifier (under ``bounded_opt``) ranges over the entries of its
bound.

``enumerated_verdicts``, ``enumerated_leibniz``, ``enumerated_induction``,
``enumerated_separation`` and ``enumerated_collection`` are the oracle for
the assignment index and its comega occurrence digits: they list every
assignment with ``reference_assignments`` and evaluate the sentence (or
the axiom's instances) under each one.  ``reference_assignments`` is the enumerator the
evaluator replaced: it finds the negated atoms and the comega occurrences
by walks of its own (``_collect_atom_keys``, ``_occ_space``) over the whole
scope, so it serves as the oracle outside ``bounded_opt`` only.

``separation`` is the oracle for ``axioms.check_separation``, which reads
both sides as vectors over the assignment positions and the names at
once: the loop over the targets and the scope names it replaced.

``reflection`` is the oracle for ``axioms.check_infinity_reflection``,
which computes nothing, since the hat names of HF sets take only the
values top and bottom: it makes every hat name and evaluates each template
at every pair of them by the textbook clauses under the bounded reading.

``hat_lemma`` is the oracle for ``valuation.check_hat_lemma``, which
computes nothing, for the same reason: it makes every hat name and the
rank-2 universe and evaluates each law at them.  ``absoluteness`` is the
oracle for ``valuation.check_subalgebra_absolute``, which evaluates the
sub side only, since a Heyting embedding commutes with the values: it
transports phi's names into the super model and evaluates both sides.

``enumerated_comprehension`` is the oracle for
``axioms.check_comprehension_refuted``, which computes nothing, since
||x in x|| is bottom for every name: it takes the meet over the enumerated
rank-(r + 1) universe.  ``pointwise_powerset``, ``pointwise_pairing``,
``pointwise_union``, ``pointwise_emptyset`` and
``pointwise_extensionality`` are the oracles for ``axioms.check_powerset``,
``check_pairing``, ``check_union``, ``check_emptyset`` and
``check_extensionality``, which compute nothing, since their witnesses
satisfy the axiom by the definition of membership: they evaluate each
axiom's own formula at every pair, target and choice (union's
exists t . (t in u & y in t) over the whole scope, outside
``bounded_opt``; powerset's candidate functions, witness and subset
vector for every target).

``theta_audit`` is the oracle for the quantified soundness audit: it
enumerates every table of negated-predicate values and evaluates the
instance over each one by the textbook n4 clauses (``eval_qn4``).

``raw_families`` is the oracle for the backtracking family generator of
``counter search --families all``: it validates every family of the raw
product of non-empty subsets.

``table_walk`` is the oracle for the sweep of ``search._table_walk``: it
builds a model, an ``EvalContext`` and an assignment list
(``reference_assignments``) for every table of atom values and evaluates
each part once per assignment.
``walk_search`` and ``walk_audit`` run a search and the soundness audit
through it; ``walk_audit`` runs the quantified instances through
``table_audit_quantified``, the per-predicate-table loop the quantified
audit's index over the predicate cells replaced.

``name_level`` is the oracle for the classes of indiscernible names
(``EvalContext.classes``): while it runs, every scope name is a class of
its own, so each choice-free fold and each all-target axiom check ranges
over every name, as before the classes.

``product_universe`` is the oracle for the full universe build: every
name through ``mk_name`` over ``itertools.product``, validated, sorted and
ranked one at a time, as the builder made them before its levels were
canonical tuples.

``enumerated_heyting`` is the oracle for ``algebra.enumerate_heyting``: it
lists every labelled poset by its pair bitmask and its down-sets by
testing every subset.

``reference_validate_lattice`` is the oracle for the bit-mask
``algebra.validate_lattice``: the loops over the order matrix it replaced.
``reference_derive_heyting`` is the oracle for the bit-mask
``algebra.derive_heyting``: the loops over every triple it replaced.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass
from unittest import mock
from typing import Mapping

from pst.algebra import (
    FiniteHeytingAlgebra,
    FiniteLattice,
    NoJoin,
    NoMeet,
    NotAPoset,
    NotBounded,
    NotDistributive,
    canonical_key,
    derive_heyting,
    enumerate_heyting,
    validate_lattice,
)
from pst.fidel import FidelError, FStructure, saturate, validate_comega, validate_n4
from pst.names import NameStore, all_hf_sets, enumerate_universe, hat_embed
from pst.proofs import (
    _QUANT_INSTANCES,
    SCHEMAS,
    SYSTEMS,
    AuditFailure,
    AuditReport,
    _all_tables,
    _check_budget,
    _collect_term_funcs,
    _ground,
    _propositional_instances,
)
from pst.search import Exhausted, Finding, SearchGoal, _algebras, _families, _sequent
from pst.syntax import (
    And,
    Bot,
    Eq,
    Exists,
    Forall,
    FuncApp,
    Imp,
    Mem,
    NameConst,
    Neg,
    Or,
    Pred,
    Var,
    bounded_parts,
    formula_to_text,
    free_vars,
    iff,
    iff_sides,
    map_terms,
    nnf_n4,
    prop_atoms,
    subformulas,
    substitute,
)
from pst.axioms import POWERSET_CAP, AxiomReport, _children, _quantified_report, _report, _targets
from pst.errors import CapExceeded
from pst.valuation import (
    ASSIGNMENT_CAP,
    EMPTY_ASSIGNMENT,
    Assignment,
    AssignmentIndex,
    EvalContext,
    EvalError,
    InvalidAssignment,
    SetModel,
    Sweep,
    UncoveredNegation,
    Verdict,
    _atom_key,
    _eval,
    _joined_values,
    eval_sentence,
    hf_meta_eval,
    make_model,
)

_ATOMIC = (Bot, Mem, Eq, Pred)


class Reference:
    def __init__(self, model: SetModel):
        self.model = model
        self.alg = model.algebra
        self._eq: dict[tuple[int, int], int] = {}
        self._mem: dict[tuple[int, int], int] = {}

    def eq(self, u: int, v: int) -> int:
        key = (u, v) if u <= v else (v, u)
        if key not in self._eq:
            alg, store = self.alg, self.model.store
            total = alg.top
            for x, a in store.get(u).entries:
                total = alg.meet_(total, alg.imp_(a, self.mem(x, v)))
            for y, b in store.get(v).entries:
                total = alg.meet_(total, alg.imp_(b, self.mem(y, u)))
            self._eq[key] = total
        return self._eq[key]

    def mem(self, u: int, v: int) -> int:
        key = (u, v)
        if key not in self._mem:
            alg = self.alg
            total = alg.bottom
            for x, a in self.model.store.get(v).entries:
                total = alg.join_(total, alg.meet_(a, self.eq(x, u)))
            self._mem[key] = total
        return self._mem[key]

    def eval(self, phi, env=None) -> int:
        env = dict(env or {})
        alg, model = self.alg, self.model

        def term(t):
            return t.ref if isinstance(t, NameConst) else env_stack[-1][t.name]

        env_stack = [env]

        def walk(node):
            if isinstance(node, Bot):
                return alg.bottom
            if isinstance(node, Eq):
                return self.eq(term(node.left), term(node.right))
            if isinstance(node, Mem):
                return self.mem(term(node.left), term(node.right))
            if isinstance(node, Pred):
                return model.prop_values[node.sym]
            if isinstance(node, And):
                return alg.meet_(walk(node.left), walk(node.right))
            if isinstance(node, Or):
                return alg.join_(walk(node.left), walk(node.right))
            if isinstance(node, Imp):
                return alg.imp_(walk(node.left), walk(node.right))
            if isinstance(node, Neg):
                return alg.neg_(walk(node.body))
            forall = isinstance(node, Forall)
            bounded = bounded_parts(node) if model.bounded_opt else None
            if bounded is not None:
                bound, body = bounded
                pairs = model.store.get(term(bound)).entries
            else:
                body = node.body
                pairs = [(nid, None) for nid in model.scope]
            out = alg.top if forall else alg.bottom
            for nid, a in pairs:
                env_stack.append({**env_stack[-1], node.var: nid})
                sub = walk(body)
                env_stack.pop()
                if a is not None:
                    sub = alg.imp_(a, sub) if forall else alg.meet_(a, sub)
                out = alg.meet_(out, sub) if forall else alg.join_(out, sub)
            return out

        return walk(phi)



def product_universe(store: NameStore, algebra, rank_bound: int) -> list[int]:
    """The full universe of rank <= rank_bound, every name made by
    ``mk_name`` in ``itertools.product`` order, with no cap."""
    if rank_bound == 0:
        return []
    out = [store.empty_name()]
    for _ in range(2, rank_bound + 1):
        base = sorted(out)
        fresh = [
            store.mk_name([(child, elem - 1) for child, elem in zip(base, choice) if elem > 0])
            for choice in itertools.product(range(algebra.size + 1), repeat=len(base))
        ]
        out = sorted(set(out) | set(fresh))
    return out


@contextlib.contextmanager
def name_level():
    """Every scope name a class of its own while the block runs: the
    name-level folds and target loops that the classes replaced."""
    with mock.patch.object(EvalContext, "classes", lambda self, model: self.domain(model.scope)):
        yield


# --- the replaced enumerator: negated atoms and comega occurrences by own walks ---------


def reference_assignments(phi, model: SetModel, ctx: EvalContext, cap: int = ASSIGNMENT_CAP) -> list[Assignment]:
    """Every admissible negation assignment of a closed formula: the atom
    choices as a product over the sorted keys, the first most significant,
    and for comega negated compounds, within each atom combination, the
    occurrence choices in ``_occ_space`` order."""
    if ctx.choice_free(phi, model.mode):
        return [EMPTY_ASSIGNMENT]
    options: dict = {}
    total = 1

    def visit(key) -> None:
        nonlocal total
        if key in options:
            return
        options[key] = model.neg_options(ctx.atom_value(key))
        total *= len(options[key])
        if total > cap:
            raise CapExceeded(
                f"more than {cap} atom assignments", cap="ASSIGNMENT_CAP", limit=cap, predicted=total
            )

    _collect_atom_keys(phi, {}, model, ctx, visit)
    option_lists = [[(key, c) for c in options[key]] for key in sorted(options)]
    if model.mode == "n4" or ctx.compound_free(phi):
        return [Assignment(atoms=combo) for combo in itertools.product(*option_lists)]
    out: list[Assignment] = []
    for atoms in itertools.product(*option_lists):
        base_asg = Assignment(atoms=atoms)
        for occs in _occ_space(phi, {}, (), (), model, base_asg, ctx, cap):
            out.append(Assignment(atoms=atoms, occs=tuple(sorted(occs.items()))))
            if len(out) > cap:
                raise CapExceeded(
                    f"more than {cap} assignments", cap="ASSIGNMENT_CAP", limit=cap, predicted=len(out)
                )
    return out


def _collect_atom_keys(node, env, model: SetModel, ctx: EvalContext, visit) -> None:
    """Call visit on the key of every negated ground atom, instance by
    instance over the whole scope.  Every atom on the way is read, so that
    of two faults the walk meets the one evaluation meets first."""
    if isinstance(node, _ATOMIC):
        ctx.atom_value(_atom_key(node, env))
        return
    if isinstance(node, (And, Or, Imp)):
        if iff_sides(node) is not None:
            node = node.left  # a -> b holds both sides of a <-> b
        _collect_atom_keys(node.left, env, model, ctx, visit)
        _collect_atom_keys(node.right, env, model, ctx, visit)
        return
    if isinstance(node, (Forall, Exists)):
        for nid in model.scope:
            _collect_atom_keys(node.body, {**env, node.var: nid}, model, ctx, visit)
        return
    if isinstance(node, Neg):
        body = node.body
        if isinstance(body, _ATOMIC):
            visit(_atom_key(body, env))
        elif model.mode == "n4":
            _collect_atom_keys(nnf_n4(node), env, model, ctx, visit)
        else:
            _collect_atom_keys(body, env, model, ctx, visit)
        return
    raise EvalError(f"cannot analyse {node!r}")


def _occ_space(node, env, trail, path, model: SetModel, base_asg: Assignment, ctx: EvalContext, cap: int) -> list[dict]:
    """comega only: every per-occurrence choice dictionary for the compound
    negations inside node, given fixed atom choices; each option set is read
    from the body's value under the choices made inside it."""
    if ctx.compound_free(node):
        return [{}]
    if isinstance(node, (And, Or, Imp)):
        lefts = _occ_space(node.left, env, trail, path + (0,), model, base_asg, ctx, cap)
        rights = _occ_space(node.right, env, trail, path + (1,), model, base_asg, ctx, cap)
        return _occ_product(lefts, rights, cap)
    if isinstance(node, (Forall, Exists)):
        spaces: list[dict] = [{}]
        for nid in model.scope:
            env2 = {**env, node.var: nid}
            subs = _occ_space(node.body, env2, trail + (nid,), path + (0,), model, base_asg, ctx, cap)
            spaces = _occ_product(spaces, subs, cap)
        return spaces
    if isinstance(node, Neg):
        body = node.body
        inner = _occ_space(body, env, trail, path + (0,), model, base_asg, ctx, cap)
        key = ("occ", path, trail)
        out = []
        for d in inner:
            asg = Assignment(atoms=base_asg.atoms, occs=tuple(sorted(d.items())))
            base = _eval(body, env, trail, path + (0,), model, asg, ctx)
            options = model.neg_options(base)
            if isinstance(body, Neg):  # the double-negation bound: the value of body's body
                limit = _eval(body.body, env, trail, path + (0, 0), model, asg, ctx)
                options = tuple(c for c in options if model.algebra.le(c, limit))
            for c in options:
                out.append({**d, key: c})
                if len(out) > cap:
                    raise _occ_cap(cap)
        return out
    raise EvalError(f"cannot analyse {node!r}")


def _occ_product(lefts: list[dict], rights: list[dict], cap: int) -> list[dict]:
    out = []
    for dl in lefts:
        for dr in rights:
            out.append({**dl, **dr})
            if len(out) > cap:
                raise _occ_cap(cap)
    return out


def _occ_cap(cap: int) -> CapExceeded:
    return CapExceeded(
        f"more than {cap} occurrence choices", cap="ASSIGNMENT_CAP", limit=cap, predicted=cap + 1
    )


def enumerated_verdicts(phi, model: SetModel, cap: int = ASSIGNMENT_CAP) -> dict[str, Verdict]:
    """check_valid under both quantifications, one assignment at a time."""
    ctx = EvalContext(model)
    assignments = reference_assignments(phi, model, ctx, cap)
    alg = model.algebra
    lo, hi = alg.top, alg.bottom
    witness = falsifier = None
    for asg in assignments:
        v = eval_sentence(phi, model, asg, ctx)
        lo = alg.meet_(lo, v)
        hi = alg.join_(hi, v)
        if v == alg.top and witness is None:
            witness = asg
        if v != alg.top and falsifier is None:
            falsifier = asg
    return {
        quant: Verdict(
            mode=model.mode,
            quantification=quant,
            rank_bound=model.rank_bound,
            value_lo=lo,
            value_hi=hi,
            valid=(falsifier is None) if quant == "all_assignments" else (witness is not None),
            n_assignments=len(assignments),
            witness=witness,
            falsifier=falsifier,
            notes=("rank-relative",),
        )
        for quant in ("all_assignments", "some_assignment")
    }


def enumerated_leibniz(model: SetModel, family, rank: int, quantification: str, cap: int = ASSIGNMENT_CAP):
    """(value, detail) of check_leibniz for a family of (variable, formula)
    members: the sentence phi(u) -> phi(v) rebuilt for every pair and
    member, in that order, and evaluated under each of its assignments."""
    ctx = EvalContext(model)
    alg = model.algebra
    names = [nid for nid in model.scope if model.store.get(nid).rank <= rank]
    lo = alg.top
    first_violation: tuple[str, ...] = ()
    for u in names:
        for v in names:
            eq_uv = ctx.eval_eq(u, v)
            for var, phi in family:
                test = Imp(substitute(phi, var, NameConst(u)), substitute(phi, var, NameConst(v)))
                ok_some = False
                for asg in reference_assignments(test, model, ctx, cap):
                    val = eval_sentence(test, model, asg, ctx)
                    lo = alg.meet_(lo, alg.imp_(eq_uv, val))
                    if alg.le(eq_uv, val):
                        ok_some = True
                    elif quantification == "all_assignments" and not first_violation:
                        first_violation = (
                            f"u=#{u}",
                            f"v=#{v}",
                            f"phi={formula_to_text(phi)}",
                            f"assignment={asg.fingerprint()}",
                        )
                if quantification == "some_assignment" and not ok_some and not first_violation:
                    first_violation = (f"u=#{u}", f"v=#{v}", f"phi={formula_to_text(phi)}", "assignment=all-fail")
    return lo, first_violation


def enumerated_induction(model: SetModel, phi, var: str, quantification: str, cap: int = ASSIGNMENT_CAP):
    """(value, valid, n_assignments) of check_induction: the schema, its y
    a variable of phi's neither free nor bound, under each assignment."""
    used = free_vars(phi) | {sub.var for sub in subformulas(phi) if isinstance(sub, (Forall, Exists))}
    fresh_y = var + "_y"
    while fresh_y in used:
        fresh_y += "_"
    phi_y = substitute(phi, var, Var(fresh_y))
    schema = Imp(
        Forall(var, Imp(Forall(fresh_y, Imp(Mem(Var(fresh_y), Var(var)), phi_y)), phi)),
        Forall(var, phi),
    )
    verdict = enumerated_verdicts(schema, model, cap)[quantification]
    value = verdict.value_lo if quantification == "all_assignments" else verdict.value_hi
    return value, verdict.valid, verdict.n_assignments


def _at(phi, env: dict, model: SetModel, asg: Assignment, ctx: EvalContext) -> int:
    """phi with its free variables bound by env, keyed as inside nested
    universal closures over them in env's order."""
    return _eval(phi, dict(env), tuple(env.values()), (0,) * len(env), model, asg, ctx)


def _enumerated_reports(model: SetModel, axiom: str, values, witnesses, notes=()) -> dict[str, AxiomReport]:
    alg = model.algebra
    return {
        quant: _report(
            model,
            axiom,
            alg.meet_all(values) if quant == "all_assignments" else alg.join_all(values),
            all(v == alg.top for v in values) if quant == "all_assignments" else alg.top in values,
            quant,
            witnesses,
            len(values),
            notes,
        )
        for quant in ("all_assignments", "some_assignment")
    }


def enumerated_separation(model: SetModel, phi, var: str, u=None, cap: int = ASSIGNMENT_CAP) -> dict[str, AxiomReport]:
    """check_separation under both quantifications, one assignment of
    forall var . phi at a time: a witness name made for every target under
    every assignment, and ||z in w|| read from it."""
    ctx = EvalContext(model)
    alg = model.algebra
    store = model.store
    values = []
    witnesses = []
    for asg in reference_assignments(Forall(var, phi), model, ctx, cap):
        val = alg.top
        for uu in model.scope if u is None else [u]:
            entries = store.get(uu).entries
            w = store.mk_name([(x, alg.meet_(ctx.eval_mem(x, uu), _at(phi, {var: x}, model, asg, ctx))) for x, _ in entries])
            if not witnesses:
                witnesses.append(("w", w))
            for z in model.scope:
                lhs = ctx.eval_mem(z, w)
                rhs = alg.meet_(ctx.eval_mem(z, uu), _at(phi, {var: z}, model, asg, ctx))
                val = alg.meet_(val, alg.meet_(alg.imp_(lhs, rhs), alg.imp_(rhs, lhs)))
        values.append(val)
    return _enumerated_reports(model, "separation", values, witnesses)


def separation(model: SetModel, phi, var: str, u=None, quantification: str = "all_assignments", ctx=None, cap: int = ASSIGNMENT_CAP) -> AxiomReport:
    """``check_separation`` name by name: phi at each name one vector over
    the assignments (``_joined_values``), and the biconditional met over a
    loop over the targets and the scope names z, reading ||x = z|| from a
    table of the children's eq rows."""
    if free_vars(phi) != {var}:
        raise EvalError("separation needs a one-free-variable formula")
    ctx = ctx or EvalContext(model)
    store = model.store
    p = ctx.planes
    targets = _targets(model, u, ctx)
    children = _children(model, targets)
    names = list(dict.fromkeys([*model.scope, *children]))
    instances = [(phi, {var: x}, (x,), (0,), (i,)) for i, x in enumerate(names)]
    values, code = _joined_values(instances, model, ctx, cap)
    phi_at = {x: values[(i,)] for i, x in enumerate(names)}
    need = ctx.domain(model.scope).need
    eq = {x: [p.decode(ctx.kernel.eqrow(x, need), z) for z in model.scope] for x in children}
    value = p.top
    witnesses = []
    for uu in targets:
        w = [(x, p.meet(ctx.eval_mem(x, uu), phi_at[x])) for x, _ in store.get(uu).entries]
        if not witnesses and code.size:
            witnesses.append(("w", store.mk_name([(x, p.decode(wx, 0)) for x, wx in w])))
        for i, z in enumerate(model.scope):
            lhs = functools.reduce(p.join, (p.meet(wx, eq[x][i]) for x, wx in w), p.bottom)
            rhs = p.meet(ctx.eval_mem(z, uu), phi_at[z])
            value = p.meet(value, p.meet(p.imp(lhs, rhs), p.imp(rhs, lhs)))
    return _quantified_report(model, "separation", Sweep(value, code, p), quantification, witnesses)


def enumerated_collection(
    model: SetModel, phi, var_x: str, var_y: str, u=None, cap: int = ASSIGNMENT_CAP
) -> dict[str, AxiomReport]:
    """check_collection under both quantifications, one assignment of
    forall var_x . forall var_y . phi at a time."""
    ctx = EvalContext(model)
    alg = model.algebra
    store = model.store
    v_name = store.mk_name([(nid, alg.top) for nid in model.scope])
    values = []
    for asg in reference_assignments(Forall(var_x, Forall(var_y, phi)), model, ctx, cap):
        val = alg.top
        for uu in model.scope if u is None else [u]:
            lhs = rhs = alg.top
            for x, ux in store.get(uu).entries:
                ex_scope = alg.join_all(_at(phi, {var_x: x, var_y: y}, model, asg, ctx) for y in model.scope)
                ex_v = alg.join_all(
                    alg.meet_(vy, _at(phi, {var_x: x, var_y: y}, model, asg, ctx))
                    for y, vy in store.get(v_name).entries
                )
                lhs = alg.meet_(lhs, alg.imp_(ux, ex_scope))
                rhs = alg.meet_(rhs, alg.imp_(ux, ex_v))
            val = alg.meet_(val, alg.imp_(lhs, rhs))
        values.append(val)
    notes = ("scope-wide constant-top witness stands in for the class level",)
    return _enumerated_reports(model, "collection", values, [("v", v_name)], notes)


def reflection(model: SetModel, max_hf_rank: int = 3) -> AxiomReport:
    """check_infinity_reflection by evaluation: three restricted
    negation-free templates at the hat names of every pair of HF sets of
    rank <= 2 (and <= max_hf_rank), each compared with its truth of the
    sets themselves."""
    alg = model.algebra
    hats = {s: hat_embed(s, model.store, alg) for s in all_hf_sets(max_hf_rank)}
    small = [s for s in hats if s.rank() <= 2]
    ref = Reference(model.with_flags(bounded_opt=True))
    x, y, w = Var("x"), Var("y"), Var("w")
    templates = [
        Mem(x, y),
        Forall("w", Imp(Mem(w, x), Mem(w, y))),
        Exists("w", And(Mem(w, x), Mem(w, y))),
    ]
    mismatches = []
    for template in templates:
        for sx in small:
            for sy in small:
                meta = hf_meta_eval(template, {"x": sx, "y": sy})
                val = ref.eval(template, {"x": hats[sx], "y": hats[sy]})
                if meta != (val == alg.top):
                    mismatches.append(f"{formula_to_text(template)} on {sx},{sy}: meta={meta} value={val}")
    notes = ("the infinity axiom itself needs an infinite witness; only the restricted-formula reflection is checked",)
    return _report(
        model,
        "infinity-reflection",
        alg.top if not mismatches else alg.bottom,
        not mismatches,
        n_assignments=len(templates) * len(small) ** 2,
        notes=notes + tuple(mismatches[:3]),
    )


def hat_lemma(model: SetModel, max_hf_rank: int = 3) -> Verdict:
    """check_hat_lemma by evaluation: (i) at every name of rank <= 2 and
    every HF set of rank <= max_hf_rank, (ii) at every pair of hat names,
    and (iv) four templates at the hat names of every pair of HF sets of
    rank <= 2, each compared with its truth of the sets themselves."""
    if model.mode not in ("boolean", "heyting"):
        raise EvalError("hat lemma checks run in boolean or heyting mode")
    ctx = EvalContext(model)
    alg = model.algebra
    store = model.store
    hf_sets = all_hf_sets(max_hf_rank)
    hats = {s: hat_embed(s, store, alg) for s in hf_sets}
    failures: list[str] = []
    for u in enumerate_universe(store, alg, 2):
        for v in hf_sets:
            lhs = ctx.eval_mem(u, hats[v])
            rhs = alg.join_all(ctx.eval_eq(u, hats[x]) for x in v.elems)
            if lhs != rhs:
                failures.append(f"(i) u=#{u} v={v} lhs={lhs} rhs={rhs}")
    for u in hf_sets:
        for v in hf_sets:
            mem_meta = u in v.elems
            mem_model = ctx.eval_mem(hats[u], hats[v]) == alg.top
            if mem_meta != mem_model:
                failures.append(f"(ii-mem) {u} in {v}: meta={mem_meta} model={mem_model}")
            eq_meta = u == v
            eq_model = ctx.eval_eq(hats[u], hats[v]) == alg.top
            if eq_meta != eq_model:
                failures.append(f"(ii-eq) {u} = {v}: meta={eq_meta} model={eq_model}")
    x, y, w = Var("x"), Var("y"), Var("w")
    templates = [
        Mem(x, y),
        Eq(x, y),
        Forall("w", Imp(Mem(w, x), Mem(w, y))),
        Exists("w", And(Mem(w, x), Eq(w, y))),
    ]
    small = [s for s in hf_sets if s.rank() <= 2]
    ref = Reference(model.with_flags(bounded_opt=True))
    for template in templates:
        for sx in small:
            for sy in small:
                meta = hf_meta_eval(template, {"x": sx, "y": sy})
                val = ref.eval(template, {"x": hats[sx], "y": hats[sy]})
                if meta != (val == alg.top):
                    failures.append(f"(iv) {formula_to_text(template)} on {sx},{sy}: meta={meta} value={val}")
    value = alg.top if not failures else alg.bottom
    return Verdict(
        mode=model.mode,
        quantification=None,
        rank_bound=model.rank_bound,
        value_lo=value,
        value_hi=value,
        valid=not failures,
        notes=("rank-relative",),
        detail=tuple(failures[:5]),
    )


def transport_name(nid: int, sub_store: NameStore, super_store: NameStore, embedding, memo: dict) -> int:
    """A copy of a name in super_store, its elements mapped through the
    embedding."""
    if nid not in memo:
        entries = sub_store.get(nid).entries
        memo[nid] = super_store.mk_name(
            [(transport_name(c, sub_store, super_store, embedding, memo), embedding[e]) for c, e in entries]
        )
    return memo[nid]


def absoluteness(phi, sub_model: SetModel, super_model: SetModel, embedding) -> Verdict:
    """check_subalgebra_absolute by evaluation on both sides: phi's names
    transported along the embedding into the super model's store, and the
    sentence evaluated there by the textbook clauses under the bounded
    reading."""
    memo: dict[int, int] = {}

    def move(t):
        if isinstance(t, NameConst):
            return NameConst(transport_name(t.ref, sub_model.store, super_model.store, embedding, memo))
        return t

    v_sub = Reference(sub_model.with_flags(bounded_opt=True)).eval(phi)
    v_super = Reference(super_model.with_flags(bounded_opt=True)).eval(map_terms(phi, move))
    ok = embedding[v_sub] == v_super
    return Verdict(
        mode=super_model.mode,
        quantification=None,
        rank_bound=sub_model.rank_bound,
        value_lo=v_super,
        value_hi=v_super,
        valid=ok,
        notes=("rank-relative",),
        detail=() if ok else (f"sub={v_sub}", f"super={v_super}"),
    )


def enumerated_comprehension(model: SetModel) -> AxiomReport:
    """check_comprehension_refuted by its definition: the join over the
    scope of the meet of ||y in x|| over every y of the enumerated
    rank-(r + 1) universe."""
    ctx = EvalContext(model)
    alg = model.algebra
    y_scope = ctx.domain(enumerate_universe(model.store, alg, model.rank_bound + 1))
    value = alg.bottom
    for x in model.scope:
        value = alg.join_(value, ctx.planes.meet_over(ctx.kernel.memcol(x, y_scope.need), y_scope.mask))
    notes = ("degenerate one-element algebra: top equals bottom",) if alg.top == alg.bottom else ()
    notes += (f"member scope rank {model.rank_bound + 1} strictly above set scope",)
    return _report(model, "comprehension-refuted", value, value == alg.bottom, notes=notes)


def _scope_bicond(ctx: EvalContext, dom, lhs, rhs) -> int:
    """Meet over the names z of dom of lhs(z) <-> rhs(z), for two vectors."""
    p = ctx.planes
    both = p.meet(p.imp(lhs, rhs), p.imp(rhs, lhs))
    return p.meet_over(both, dom.mask)


def pointwise_powerset(model: SetModel, u=None, cap: int = POWERSET_CAP) -> AxiomReport:
    """check_powerset one target at a time: the candidate functions'
    values each a meet of its own, the witness name, its member column and
    the subset vector built for every target."""
    ctx = EvalContext(model)
    alg = model.algebra
    store = model.store
    scope = ctx.domain(model.scope)
    bounded = model.with_flags(bounded_opt=True)
    value = alg.top
    witnesses = []
    funcs_by_dom = {}
    for uu in model.scope if u is None else [u]:
        dom_u = tuple(c for c, _ in store.get(uu).entries)
        n_funcs = alg.size ** len(dom_u)
        if n_funcs > cap:
            raise CapExceeded(
                f"powerset would need {n_funcs} candidate functions", cap="POWERSET_CAP", limit=cap, predicted=n_funcs
            )
        funcs = funcs_by_dom.get(dom_u)
        if funcs is None:
            funcs = funcs_by_dom[dom_u] = [
                (store.mk_name(list(zip(dom_u, vals))), vals)
                for vals in itertools.product(range(alg.size), repeat=len(dom_u))
            ]
        in_u = [ctx.eval_mem(z, uu) for z in dom_u]
        w = store.mk_name([(f, alg.meet_all(alg.imp_(fv, m) for fv, m in zip(vals, in_u))) for f, vals in funcs])
        if not witnesses:
            witnesses.append(("w", w))
        lhs = ctx.kernel.memcol(w, scope.need)
        subset = ctx.vector(
            Forall("y", Imp(Mem(Var("y"), Var("v")), Mem(Var("y"), NameConst(uu)))), {}, "v", scope, bounded
        )
        value = alg.meet_(value, _scope_bicond(ctx, scope, lhs, subset))
    return _report(model, "powerset", value, value == alg.top, witnesses=witnesses)


def pointwise_union(model: SetModel, u=None) -> AxiomReport:
    """check_union one target at a time, its right side the axiom's own
    formula exists t . (t in u & y in t) with t ranging over the whole
    scope."""
    ctx = EvalContext(model)
    alg = model.algebra
    store = model.store
    scope = ctx.domain(model.scope)
    unbounded = model.with_flags(bounded_opt=False)
    union = Exists("t", And(Mem(Var("t"), Var("u")), Mem(Var("y"), Var("t"))))
    value = alg.top
    witnesses = []
    for uu in model.scope if u is None else [u]:
        dom: dict[int, int] = {}
        for child, weight in store.get(uu).entries:
            for x, vx in store.get(child).entries:
                dom[x] = alg.join_(dom.get(x, alg.bottom), alg.meet_(weight, vx))
        w = store.mk_name(sorted(dom.items()))
        if not witnesses:
            witnesses.append(("w", w))
        lhs = ctx.kernel.memcol(w, scope.need)
        rhs = ctx.vector(union, {"u": uu}, "y", scope, unbounded)
        value = alg.meet_(value, _scope_bicond(ctx, scope, lhs, rhs))
    return _report(model, "union", value, value == alg.top, witnesses=witnesses)


def pointwise_pairing(model: SetModel, u=None, v=None) -> AxiomReport:
    """check_pairing at the given pair, else at every pair of scope names:
    the axiom's formula forall z . (z in w <-> (z eq u | z eq v)) folded
    over the scope name by name, with no classes."""
    ctx = EvalContext(model)
    alg = model.algebra
    store = model.store
    scope = ctx.domain(model.scope)
    z = Var("z")
    pairing = iff(Mem(z, Var("w")), Or(Eq(z, Var("u")), Eq(z, Var("v"))))
    value = alg.top
    witnesses = []
    with name_level():
        for uu, vv in [(u, v)] if u is not None and v is not None else itertools.product(model.scope, repeat=2):
            w = store.mk_name([(uu, alg.top), (vv, alg.top)])
            if not witnesses:
                witnesses.append(("w", w))
            at = ctx.vector(pairing, {"u": uu, "v": vv, "w": w}, "z", scope, model)
            value = alg.meet_(value, ctx.planes.meet_over(at, scope.mask))
    return _report(model, "pairing", value, value == alg.top, witnesses=witnesses)


def pointwise_emptyset(model: SetModel) -> AxiomReport:
    """check_emptyset at every scope name u and every n' in N_top:
    ||u in {u: n'}|| read from the kernel and compared with n'."""
    ctx = EvalContext(model)
    alg = model.algebra
    choices = model.neg_options(alg.top)
    value = alg.top
    witnesses = []
    for uu in model.scope:
        for nprime in choices:
            w = model.store.mk_name([(uu, nprime)])
            if not witnesses:
                witnesses.append(("w", w))
            got = ctx.eval_mem(uu, w)
            value = alg.meet_(value, alg.meet_(alg.imp_(got, nprime), alg.imp_(nprime, got)))
    return _report(
        model,
        "emptyset",
        value,
        value == alg.top,
        quantification="all_assignments",
        witnesses=witnesses,
        n_assignments=len(model.scope) * len(choices),
        notes=("witness adapts to each admissible choice of ~(u = u)",),
    )


def pointwise_extensionality(model: SetModel) -> AxiomReport:
    """check_extensionality as the axiom's sentence, evaluated over the
    scope name by name."""
    x, y, z = Var("x"), Var("y"), Var("z")
    sentence = Forall("x", Forall("y", Imp(Forall("z", iff(Mem(z, x), Mem(z, y))), Eq(x, y))))
    with name_level():
        value = eval_sentence(sentence, model)
    return _report(model, "extensionality", value, value == model.algebra.top)


# --- the instance decomposition, by brute force ----------------------------------------


def component_verdict(phi, model: SetModel) -> tuple[int, int, bool, bool, int]:
    """(value_lo, value_hi, valid under all assignments, valid under some,
    n_assignments) of a closed sentence, from no valuation code: the
    instances of its prefix (forall and & for a meet, exists and | for a
    join) found by a walk of their own, joined where they negate a common
    ground atom, each component's assignments listed by brute force with
    atom values from ``Reference``, and the components' value sets
    combined.  Only outside ``bounded_opt``."""
    ref = Reference(model)
    alg = model.algebra
    meet = not isinstance(phi, (Exists, Or))
    op = alg.meet_ if meet else alg.join_
    instances = []

    def split(node, env):
        if isinstance(node, Forall if meet else Exists):
            for nid in model.scope:
                split(node.body, {**env, node.var: nid})
        elif isinstance(node, And if meet else Or):
            split(node.left, env)
            split(node.right, env)
        else:
            instances.append((node, env))

    def key(atom, env):
        def name(t):
            return t.ref if isinstance(t, NameConst) else env[t.name]

        if isinstance(atom, Bot):
            return ("bot",)
        if isinstance(atom, Eq):
            return ("eq", *sorted((name(atom.left), name(atom.right))))
        return ("mem", name(atom.left), name(atom.right))

    def value(k):
        if k[0] == "bot":
            return alg.bottom
        return ref.eq(k[1], k[2]) if k[0] == "eq" else ref.mem(k[1], k[2])

    def negated(node, env, out):
        if isinstance(node, Neg) and isinstance(node.body, _ATOMIC) and model.mode in ("comega", "n4"):
            out.add(key(node.body, env))
        elif isinstance(node, Neg) and model.mode == "n4":
            negated(nnf_n4(node), env, out)
        elif isinstance(node, Neg):
            negated(node.body, env, out)
        elif isinstance(node, (And, Or, Imp)):
            negated(node.left, env, out)
            negated(node.right, env, out)
        elif isinstance(node, (Forall, Exists)):
            for nid in model.scope:
                negated(node.body, {**env, node.var: nid}, out)

    def values(node, env, chosen) -> list[int]:
        """The node's value under each combination of its occurrence choices."""
        if isinstance(node, _ATOMIC):
            return [value(key(node, env))]
        if isinstance(node, Neg):
            if model.mode in ("boolean", "heyting"):
                return [alg.neg_(v) for v in values(node.body, env, chosen)]
            if model.mode == "n4" and not isinstance(node.body, _ATOMIC):
                return values(nnf_n4(node), env, chosen)
            return [c for c, _ in negations(node, env, chosen)]
        if isinstance(node, (And, Or, Imp)):
            f = alg.meet_ if isinstance(node, And) else alg.join_ if isinstance(node, Or) else alg.imp_
            return [f(a, b) for a in values(node.left, env, chosen) for b in values(node.right, env, chosen)]
        forall = isinstance(node, Forall)
        acc = [alg.top if forall else alg.bottom]
        for nid in model.scope:
            sub = values(node.body, {**env, node.var: nid}, chosen)
            acc = [(alg.meet_ if forall else alg.join_)(a, b) for a in acc for b in sub]
        return acc

    def negations(node, env, chosen) -> list[tuple[int, int]]:
        """comega: (the negation's value, its body's value) per choice."""
        body = node.body
        if isinstance(body, _ATOMIC):
            k = key(body, env)
            return [(chosen[k], value(k))]
        if isinstance(body, Neg):  # the choice stays below the body's body
            return [
                (c, v) for v, bound in negations(body, env, chosen) for c in model.neg_options(v) if alg.le(c, bound)
            ]
        return [(c, v) for v in values(body, env, chosen) for c in model.neg_options(v)]

    split(phi, {})
    keys = []
    for node, env in instances:
        found: set = set()
        negated(node, env, found)
        keys.append(found)
    components: list[tuple[list[int], set]] = []
    for i, found in enumerate(keys):
        joined = [c for c in components if c[1] & found]
        merged = ([i], set(found))
        for members, ks in joined:
            merged[0].extend(members)
            merged[1].update(ks)
            components.remove((members, ks))
        components.append(merged)
    reach = {alg.top if meet else alg.bottom}
    count = 1
    for members, ks in components:
        ks = sorted(ks)
        taken: set = set()
        n = 0
        for combo in itertools.product(*(model.neg_options(value(k)) for k in ks)):
            chosen = dict(zip(ks, combo))
            for vals in itertools.product(*(values(*instances[i], chosen) for i in members)):
                taken.add(functools.reduce(op, vals))
                n += 1
        count *= n
        reach = {op(a, b) for a in reach for b in taken}
    return (
        alg.meet_all(reach),
        alg.join_all(reach),
        reach <= {alg.top},
        alg.top in reach,
        count,
    )


def unshared(phi):
    """phi rebuilt node by node, so that no <-> shares its sides."""
    if isinstance(phi, (And, Or, Imp)):
        return type(phi)(unshared(phi.left), unshared(phi.right))
    if isinstance(phi, Neg):
        return Neg(unshared(phi.body))
    if isinstance(phi, (Forall, Exists)):
        return type(phi)(phi.var, unshared(phi.body))
    return phi


# --- theta structures: predicate tables over a finite domain ---------------------------


@dataclass(frozen=True)
class ThetaStructure:
    """An F-structure over a finite first-order domain: predicate tables
    into the algebra, function tables into the domain, and a table of
    chosen negation values for each atom."""

    fstructure: FStructure
    domain: tuple
    preds: Mapping[str, Mapping[tuple, int]]
    funcs: Mapping[str, Mapping[tuple, object]]
    neg_preds: Mapping[str, Mapping[tuple, int]]

    def __post_init__(self) -> None:
        for sym, table in self.neg_preds.items():
            for args, nv in table.items():
                base = self.preds[sym][args]
                if nv not in self.fstructure.negs[base]:
                    raise InvalidAssignment(f"~{sym}{args} = {nv} not in N_{base}")


def eval_qn4(phi, theta: ThetaStructure, valuation=None) -> int:
    """Truth value over a theta structure; negation over a compound is
    pushed to the atoms by ``nnf_n4`` and read from the negated-atom table
    at atoms."""
    alg = theta.fstructure.algebra
    v = dict(valuation or {})

    def term(t):
        if isinstance(t, Var):
            return v[t.name]
        if isinstance(t, FuncApp):
            return theta.funcs[t.sym][tuple(term(a) for a in t.args)]
        raise EvalError("name constants have no theta interpretation")

    negated = isinstance(phi, Neg)
    atom = phi.body if negated else phi
    if isinstance(atom, Bot):
        if negated:
            raise UncoveredNegation("~bot has no clause")
        return alg.bottom
    if isinstance(atom, Pred):
        table = theta.neg_preds if negated else theta.preds
        return table[atom.sym][tuple(term(a) for a in atom.args)]
    if negated:
        return eval_qn4(nnf_n4(phi), theta, v)
    if isinstance(phi, And):
        return alg.meet_(eval_qn4(phi.left, theta, v), eval_qn4(phi.right, theta, v))
    if isinstance(phi, Or):
        return alg.join_(eval_qn4(phi.left, theta, v), eval_qn4(phi.right, theta, v))
    if isinstance(phi, Imp):
        return alg.imp_(eval_qn4(phi.left, theta, v), eval_qn4(phi.right, theta, v))
    if isinstance(phi, (Forall, Exists)):
        vals = [eval_qn4(phi.body, theta, {**v, phi.var: a}) for a in theta.domain]
        return alg.meet_all(vals) if isinstance(phi, Forall) else alg.join_all(vals)
    raise EvalError(f"cannot evaluate {phi!r}")


def _neg_tables(ptab, fs):
    """Every admissible negated-atom table over the predicate tables."""
    cells = [(sym, args, base) for sym, table in sorted(ptab.items()) for args, base in sorted(table.items())]
    for combo in itertools.product(*(fs.negs[base] for _, _, base in cells)):
        out: dict[str, dict] = {sym: {} for sym, _, _ in cells}
        for (sym, args, _), val in zip(cells, combo):
            out[sym][args] = val
        yield out


def theta_audit(sid: str, inst, algebras, max_domain: int) -> tuple[int, list[AuditFailure]]:
    """(evaluations, failures) of the quantified audit of one instance: one
    evaluation per negated-atom table, one failure per table and variable
    valuation below top."""
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}

    def collect(t):
        if isinstance(t, FuncApp):
            funcs[t.sym] = len(t.args)
            for a in t.args:
                collect(a)

    for node in subformulas(inst):
        if isinstance(node, Pred):
            preds[node.sym] = len(node.args)
            for a in node.args:
                collect(a)
    vs = sorted(free_vars(inst))
    count = 0
    failures = []
    for alg in algebras:
        fs = saturate(alg, "n4")
        for dsize in range(1, max_domain + 1):
            domain = tuple(range(dsize))
            for ptab in _all_tables(preds, domain, range(alg.size)):
                for ftab in _all_tables(funcs, domain, domain):
                    for ntab in _neg_tables(ptab, fs):
                        theta = ThetaStructure(fs, domain, ptab, ftab, ntab)
                        count += 1
                        for combo in itertools.product(domain, repeat=len(vs)):
                            val = eval_qn4(inst, theta, dict(zip(vs, combo)))
                            if val != alg.top:
                                failures.append(
                                    AuditFailure(sid, formula_to_text(inst), alg.size, dsize, repr(ptab), val)
                                )
    return count, failures


def raw_families(alg, kind: str):
    """Every family of the given kind over alg: the product of the non-empty
    subsets in mask order (N_0 most significant), each validated whole."""
    validate = validate_n4 if kind == "n4" else validate_comega
    subsets = [
        tuple(e for e in range(alg.size) if mask >> e & 1)
        for mask in range(1, 1 << alg.size)
    ]
    for fam in itertools.product(subsets, repeat=alg.size):
        try:
            yield validate(alg, list(fam))
        except FidelError:
            continue


# --- the per-table walk the sweep replaced ----------------------------------------------


def table_walk(joint, parts, structures, cap: int = ASSIGNMENT_CAP):
    """(structure, atom table, assignment, part values) for every structure
    given, every table of values of the propositional atoms of joint
    (lexicographically over the sorted atoms) and every negation assignment
    of joint, in enumeration order.  Each part is evaluated at its position
    in joint, so one assignment serves all of them."""
    atoms = sorted(prop_atoms(joint))
    for fs in structures:
        for values in itertools.product(range(fs.algebra.size), repeat=len(atoms)):
            table = dict(zip(atoms, values))
            model = make_model(fs, NameStore(), 0, scope=(), prop_values=table)
            ctx = EvalContext(model)
            for asg in reference_assignments(joint, model, ctx, cap):
                yield fs, table, asg, [eval_sentence(f, model, asg, ctx, path) for f, path in parts]


def walk_search(goal: SearchGoal):
    """``search.search`` through ``table_walk``: the first assignment with
    every premise top and the conclusion below it, or the count of
    evaluations on exhaustion (no re-certification)."""
    joint, parts = _sequent(goal)
    structures = (
        fs for alg in _algebras(goal.budget) for fs in _families(alg, goal.budget.families, goal.logic)
    )
    evaluations = 0
    for fs, table, asg, vals in table_walk(joint, parts, structures, goal.budget.max_assignments):
        evaluations += 1
        top = fs.algebra.top
        *prem_vals, concl = vals
        if concl != top and all(v == top for v in prem_vals):
            values = tuple((formula_to_text(f), v) for (f, _), v in zip(parts, vals))
            if goal.kind == "non_explosion":
                description = (
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


def walk_audit(system: str, max_domain: int = 2, max_algebra: int = 4, eval_cap: int = 2_000_000) -> AuditReport:
    """``proofs.audit_soundness`` with the propositional instances evaluated
    through ``table_walk``, one evaluation at a time, and the quantified
    instances through ``table_audit_quantified``."""
    logic = "comega" if system == "qcw" else "n4"
    algebras = list(enumerate_heyting(max_algebra))
    n4 = [saturate(alg, "n4") for alg in algebras]
    failures: list[AuditFailure] = []
    n_inst = n_eval = 0
    for sid in SYSTEMS[system]:
        if SCHEMAS[sid].template is None:
            for inst in _QUANT_INSTANCES[sid]:
                n_inst += 1
                try:
                    n_eval += table_audit_quantified(sid, inst, n4, max_domain, failures, eval_cap - n_eval)
                except CapExceeded as exc:  # reported against the whole audit
                    if exc.cap == "eval_cap":
                        _check_budget(n_eval + exc.predicted, eval_cap)
                    raise
            continue
        for inst in _propositional_instances(sid):
            n_inst += 1
            count = 0
            structures = (saturate(alg, logic) for alg in algebras)
            for fs, table, asg, (val,) in table_walk(inst, [(inst, ())], structures):
                count += 1
                _check_budget(n_eval + count, eval_cap)
                if val != fs.algebra.top:
                    failures.append(
                        AuditFailure(
                            schema=sid,
                            instance=formula_to_text(inst),
                            algebra_size=fs.algebra.size,
                            domain_size=0,
                            tables=f"atoms={table} negs={asg.fingerprint()}",
                            value=val,
                        )
                    )
            n_eval += count
    return AuditReport(system, max_algebra, max_domain, n_inst, n_eval, tuple(failures))


def table_audit_quantified(
    sid: str,
    inst,
    structures,
    max_domain: int,
    failures: list[AuditFailure],
    budget: int,
) -> int:
    """``proofs._audit_quantified`` one predicate table at a time: a model,
    an ``EvalContext`` and an ``AssignmentIndex`` over the negation choices
    of the cells per predicate table, and one evaluation of the grounded
    instance per function table, counting the index's size and checking
    the budget before each."""
    count = 0
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    for node in subformulas(inst):
        if isinstance(node, Pred):
            preds[node.sym] = len(node.args)
            for a in node.args:
                _collect_term_funcs(a, funcs)
    for fs in structures:
        alg = fs.algebra
        for dsize in range(1, max_domain + 1):
            domain = tuple(range(dsize))
            func_tables = _all_tables(funcs, domain, domain)
            for ptab in _all_tables(preds, domain, range(alg.size)):
                cells: dict = {}
                options: dict[tuple, tuple[int, ...]] = {}
                for sym, table in ptab.items():
                    for args, value in table.items():
                        cells[(sym, args) if args else sym] = value
                        options[("pred", sym, args) if args else ("pred", sym)] = fs.negs[value]
                model = make_model(fs, NameStore(), 0, scope=domain, prop_values=cells)
                ctx = EvalContext(model)
                p = alg.planes
                index = AssignmentIndex(options, p)
                for ftab in func_tables:
                    count += index.size
                    _check_budget(count, budget)
                    grounded = map_terms(inst, lambda t: _ground(t, ftab))
                    value = eval_sentence(grounded, model, index, ctx)
                    failing = p.exceeds(p.top, value) & ((1 << index.size) - 1)
                    while failing:
                        low = failing & -failing
                        failing ^= low
                        failures.append(
                            AuditFailure(
                                schema=sid,
                                instance=formula_to_text(inst),
                                algebra_size=alg.size,
                                domain_size=dsize,
                                tables=repr(ptab),
                                value=p.decode(value, low.bit_length() - 1),
                            )
                        )
    return count


# --- distributive lattices from every labelled poset ----------------------------------


def _labelled_posets(k: int):
    """All posets on 0..k-1 whose order refines the integer order, by pair
    bitmask.  Rows are bitmasks: bit j of row i set iff i <= j."""
    if k == 0:
        yield ()
        return
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for bits in range(1 << len(pairs)):
        rows = [1 << i for i in range(k)]
        for idx, (i, j) in enumerate(pairs):
            if bits >> idx & 1:
                rows[i] |= 1 << j
        ok = True
        for i in range(k):
            acc = rows[i]
            m = rows[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= rows[j]
            if acc != rows[i]:
                ok = False
                break
        if ok:
            yield tuple(rows)


def _downsets(rows, limit: int):
    """Downward-closed subsets as bitmasks, or None if more than limit."""
    k = len(rows)
    down = [0] * k
    for i in range(k):
        for j in range(k):
            if rows[j] >> i & 1:  # j <= i
                down[i] |= 1 << j
    out = []
    for s in range(1 << k):
        closed = True
        m = s
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            if down[i] & ~s:
                closed = False
                break
        if closed:
            out.append(s)
            if len(out) > limit:
                return None
    return out


def enumerated_heyting(max_size: int) -> list[FiniteHeytingAlgebra]:
    """Every distributive lattice of at most max_size elements, the first
    labelled poset of each isomorphism class kept, by size and then
    canonical key."""
    found: dict[bytes, FiniteHeytingAlgebra] = {}
    for k in range(0, max_size):
        for rows in _labelled_posets(k):
            downs = _downsets(rows, max_size)
            if downs is None:
                continue
            downs.sort(key=lambda s: (bin(s).count("1"), s))
            leq = [[(a & b) == a for b in downs] for a in downs]
            alg = derive_heyting(validate_lattice(leq))
            found.setdefault(canonical_key(alg), alg)
    return [alg for _, alg in sorted(found.items(), key=lambda kv: (kv[1].size, kv[0]))]


# --- join-irreducibles by the join of the elements below ------------------------------


def reference_birkhoff(lat: FiniteLattice) -> tuple[list[int], list[int]]:
    """The oracle for ``algebra._birkhoff``: the elements other than the
    bottom that are not the join of the elements strictly below them, in
    element order, and each element's mask of the irreducibles below it."""
    n = lat.size
    irr = []
    for e in range(n):
        below = lat.bottom
        for x in range(n):
            if x != e and lat.leq[x][e]:
                below = lat.join[below][x]
        if e != lat.bottom and below != e:
            irr.append(e)
    codes = [sum(1 << k for k, j in enumerate(irr) if lat.leq[j][e]) for e in range(n)]
    return irr, codes


# --- lattice validation by loops over the order matrix ------------------------------


def reference_validate_lattice(leq_rows) -> FiniteLattice:
    """The oracle for ``algebra.validate_lattice``: the same checks, in the
    same order, by loops over the order matrix.

    Accepts any square matrix of truthy/falsy entries.  Raises the first
    failed property with the offending pair.
    """
    n = len(leq_rows)
    if n < 1 or any(len(row) != n for row in leq_rows):
        raise NotAPoset("shape", (n, n))
    leq = tuple(tuple(bool(v) for v in row) for row in leq_rows)

    for i in range(n):
        if not leq[i][i]:
            raise NotAPoset("reflexivity", (i, i))
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                raise NotAPoset("antisymmetry", (i, j))
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            for k in range(n):
                if leq[j][k] and not leq[i][k]:
                    raise NotAPoset("transitivity", (i, k))

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            lower = [w for w in range(n) if leq[w][x] and leq[w][y]]
            glb = [w for w in lower if all(leq[v][w] for v in lower)]
            if not glb:
                raise NoMeet((x, y))
            meet[x][y] = glb[0]
            upper = [w for w in range(n) if leq[x][w] and leq[y][w]]
            lub = [w for w in upper if all(leq[w][v] for v in upper)]
            if not lub:
                raise NoJoin((x, y))
            join[x][y] = lub[0]

    tops = [t for t in range(n) if all(leq[x][t] for x in range(n))]
    if not tops:
        raise NotBounded("top")
    bottoms = [b for b in range(n) if all(leq[b][x] for x in range(n))]
    if not bottoms:
        raise NotBounded("bottom")

    return FiniteLattice(
        size=n,
        leq=leq,
        meet=tuple(tuple(row) for row in meet),
        join=tuple(tuple(row) for row in join),
        top=tops[0],
        bottom=bottoms[0],
    )


def reference_derive_heyting(lat: FiniteLattice) -> FiniteHeytingAlgebra:
    """The oracle for ``algebra.derive_heyting``: distributivity over every
    triple, the implication as the join of its candidates, and residuation
    over every triple, in that order."""
    n = lat.size
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if lat.meet[x][lat.join[y][z]] != lat.join[lat.meet[x][y]][lat.meet[x][z]]:
                    raise NotDistributive((x, y, z))

    imp = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            candidates = [z for z in range(n) if lat.leq[lat.meet[x][z]][y]]
            best = lat.bottom
            for z in candidates:
                best = lat.join[best][z]
            # distributivity guarantees the join of candidates is a candidate
            assert lat.leq[lat.meet[x][best]][y]
            imp[x][y] = best

    for x in range(n):
        for y in range(n):
            for z in range(n):
                assert (lat.leq[lat.meet[x][y]][z]) == (lat.leq[x][imp[y][z]])
    flag = all(lat.join[x][imp[x][lat.bottom]] == lat.top for x in range(n))
    return FiniteHeytingAlgebra(
        lattice=lat,
        imp=tuple(tuple(row) for row in imp),
        boolean_flag=flag,
    )
