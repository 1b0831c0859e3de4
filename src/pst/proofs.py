"""Hilbert-style proof kernel with axiom-schema matching.

Systems: ``qn4`` (positive axioms, strong-negation axioms, quantifier
axioms, rules MP / R3 / R4), ``qn3`` (adds the explosion axiom) and
``qcw`` (positive axioms plus excluded middle and double negation
elimination for the non-deterministic negation).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping

from .algebra import enumerate_heyting
from .errors import CapExceeded, PstError
from .fidel import FStructure, saturate
from .syntax import (
    ATOMS,
    And,
    Derivation,
    Exists,
    Forall,
    Formula,
    FuncApp,
    Imp,
    Meta,
    NameConst,
    Neg,
    Or,
    Pred,
    Term,
    Var,
    _subst_term,
    formula_to_text,
    free_for,
    free_vars,
    iff,
    map_terms,
    prop_atoms,
    subformulas,
)
from .search import _index_walk, _prop_model
from .valuation import ASSIGNMENT_CAP, EvalContext, _bits, _probe


class ProofError(PstError):
    pass


class NoMatch(ProofError):
    pass


class SideConditionViolated(ProofError):
    pass


_A = Meta("alpha")
_B = Meta("beta")
_C = Meta("gamma")


@dataclass(frozen=True)
class AxiomSchema:
    sid: str
    template: Formula | None  # None for the quantifier schemas A1/A2
    note: str = ""


_TEMPLATES: dict[str, Formula] = {
    "N1": Imp(_A, Imp(_B, _A)),
    "N2": Imp(Imp(_A, Imp(_B, _C)), Imp(Imp(_A, _B), Imp(_A, _C))),
    "N3": Imp(And(_A, _B), _B),
    "N4": Imp(And(_A, _B), _A),
    "N5": Imp(_A, Imp(_B, And(_A, _B))),
    "N6": Imp(_A, Or(_A, _B)),
    "N7": Imp(_B, Or(_A, _B)),
    "N8": Imp(Imp(_A, _C), Imp(Imp(_B, _C), Imp(Or(_A, _B), _C))),
    "N9": iff(Neg(Imp(_A, _B)), And(_A, Neg(_B))),
    "N10": iff(Neg(And(_A, _B)), Or(Neg(_A), Neg(_B))),
    "N11": iff(Neg(Or(_A, _B)), And(Neg(_A), Neg(_B))),
    # the weak and strong negation glyphs are unified, so the two double
    # negation axioms share one template and both ids are accepted
    "N12": iff(Neg(Neg(_A)), _A),
    "N13": iff(Neg(Neg(_A)), _A),
    "N14": Imp(Neg(_A), Imp(_A, _B)),
    "CW1": Or(_A, Neg(_A)),
    "CW2": Imp(Neg(Neg(_A)), _A),
}

SCHEMAS: dict[str, AxiomSchema] = {
    **{sid: AxiomSchema(sid, tpl) for sid, tpl in _TEMPLATES.items()},
    "A1": AxiomSchema("A1", None, "phi(x/t) -> exists x phi, t free for x"),
    "A2": AxiomSchema("A2", None, "forall x phi -> phi(x/t), t free for x"),
}

SYSTEMS: dict[str, tuple[str, ...]] = {
    "qn4": tuple(f"N{i}" for i in range(1, 14)) + ("A1", "A2"),
    "qn3": tuple(f"N{i}" for i in range(1, 15)) + ("A1", "A2"),
    "qcw": tuple(f"N{i}" for i in range(1, 9)) + ("CW1", "CW2", "A1", "A2"),
}


def _unify(template: Formula, phi: Formula, binds: dict[str, Formula]) -> bool:
    if isinstance(template, Meta):
        if template.name in binds:
            return binds[template.name] == phi
        binds[template.name] = phi
        return True
    if type(template) is not type(phi):
        return False
    if isinstance(template, (And, Or, Imp)):
        return _unify(template.left, phi.left, binds) and _unify(
            template.right, phi.right, binds
        )
    if isinstance(template, Neg):
        return _unify(template.body, phi.body, binds)
    return template == phi


def _candidates(x: str, body: Formula, instance: Formula) -> list[Term]:
    """The terms of the first atom of the instance that differs from the
    matrix's atom at its place (atoms in pre-order), then every argument
    inside a function term among them, each once; Var(x) if none differs."""
    pairs = zip(
        (a for a in subformulas(body) if isinstance(a, ATOMS)),
        (b for b in subformulas(instance) if isinstance(b, ATOMS)),
    )
    b = next((b for a, b in pairs if a != b), None)
    if b is None:
        return [Var(x)]
    terms: list[Term] = list(b.args) if isinstance(b, Pred) else [b.left, b.right]
    for t in terms:  # the list grows by the arguments of its function terms
        if isinstance(t, FuncApp):
            terms.extend(t.args)
    return list(dict.fromkeys(terms))


def match_schema(phi: Formula, schema: AxiomSchema | str) -> Mapping[str, object]:
    """Bindings instantiating the schema to phi.

    For the quantifier schemas the bindings carry the matrix formula, the
    bound variable and the witness term, and the freeness side condition is
    enforced.  Raises NoMatch / SideConditionViolated.

    The witness term t is the first candidate (``_candidates``) whose plain
    replacement of the free occurrences of x in the matrix gives the
    instance.  Every term that fits is a candidate: a replacement changes
    only the atoms where x is free, so if it changes any, t stands in the
    first of them where x stood free, and if it changes none, the instance
    is the matrix and Var(x) fits.  If x occurs free, only one term can
    fit, the term at such an occurrence; if it does not, only Var(x) can.
    """
    if isinstance(schema, str):
        try:
            schema = SCHEMAS[schema.upper()]
        except KeyError as exc:
            raise NoMatch(f"unknown schema {schema!r}") from exc
    if schema.template is not None:
        binds: dict[str, Formula] = {}
        if not _unify(schema.template, phi, binds):
            raise NoMatch(f"{formula_to_text(phi)} does not instantiate {schema.sid}")
        return binds
    if schema.sid in ("A1", "A2"):  # the quantifier on the right (A1) or on the left (A2)
        a1 = schema.sid == "A1"
        shape = "phi(x/t) -> exists x phi" if a1 else "forall x phi -> phi(x/t)"
        if not (isinstance(phi, Imp) and isinstance(phi.right if a1 else phi.left, Exists if a1 else Forall)):
            raise NoMatch(f"{schema.sid} needs the shape {shape}")
        q, instance, side = (phi.right, phi.left, "left") if a1 else (phi.left, phi.right, "right")
        x = q.var
        body = q.body
        for t in _candidates(x, body, instance):
            if map_terms(body, lambda term: _subst_term(term, x, t), x) == instance:
                break
        else:
            raise NoMatch(f"{side} side is not a substitution instance")
        if not free_for(t, x, body):
            raise SideConditionViolated(f"term not free for {x!r}")
        return {"phi": body, "x": x, "t": t}
    raise NoMatch(f"unhandled schema {schema.sid}")


# --- derivation checking ------------------------------------------------------------


@dataclass(frozen=True)
class DerivationCheck:
    ok: bool
    line: int | None = None
    reason: str | None = None
    proven: Formula | None = None


def check_derivation(deriv: Derivation, system: str | None = None) -> DerivationCheck:
    """Verify every line against its justification; premises must be closed
    sentences.  The conclusion is the qed line's formula."""
    system = system or deriv.system
    if system not in SYSTEMS:
        return DerivationCheck(False, None, f"unknown system {system!r}")
    allowed = SYSTEMS[system]
    for k, prem in enumerate(deriv.premises, start=1):
        if free_vars(prem):
            return DerivationCheck(
                False, k, "open premise; close it universally first"
            )
    by_number: dict[int, Formula] = {}
    for line in deriv.lines:
        kind = line.just[0]
        if kind == "axiom":
            sid = line.just[1]
            if sid not in allowed:
                return DerivationCheck(
                    False, line.number, f"axiom {sid} not available in {system}"
                )
            try:
                match_schema(line.formula, sid)
            except SideConditionViolated as exc:
                return DerivationCheck(False, line.number, f"side condition: {exc}")
            except NoMatch:
                return DerivationCheck(
                    False, line.number, f"not an instance of {sid}"
                )
        elif kind == "premise":
            k = line.just[1]
            if not (1 <= k <= len(deriv.premises)):
                return DerivationCheck(False, line.number, f"no premise {k}")
            if deriv.premises[k - 1] != line.formula:
                return DerivationCheck(
                    False, line.number, f"formula differs from premise {k}"
                )
        elif kind == "mp":
            i, j = line.just[1], line.just[2]
            if i >= line.number or j >= line.number:
                return DerivationCheck(False, line.number, "forward reference")
            if i not in by_number or j not in by_number:
                return DerivationCheck(False, line.number, "reference to missing line")
            major = by_number[j]
            if not isinstance(major, Imp) or major.left != by_number[i] or major.right != line.formula:
                return DerivationCheck(
                    False, line.number, "conclusion is not modus ponens of cited lines"
                )
        elif kind in ("r3", "r4"):
            i = line.just[1]
            if i >= line.number:
                return DerivationCheck(False, line.number, "forward reference")
            if i not in by_number:
                return DerivationCheck(False, line.number, "reference to missing line")
            prem = by_number[i]
            if kind == "r3":
                shape = (
                    isinstance(line.formula, Imp)
                    and isinstance(line.formula.left, Exists)
                    and isinstance(prem, Imp)
                    and prem.left == line.formula.left.body
                    and prem.right == line.formula.right
                )
                if not shape:
                    return DerivationCheck(
                        False, line.number, "conclusion is not an R3 generalisation"
                    )
                x = line.formula.left.var
                if x in free_vars(line.formula.right):
                    return DerivationCheck(
                        False, line.number, f"R3 side condition: {x} free in consequent"
                    )
            else:
                shape = (
                    isinstance(line.formula, Imp)
                    and isinstance(line.formula.right, Forall)
                    and isinstance(prem, Imp)
                    and prem.left == line.formula.left
                    and prem.right == line.formula.right.body
                )
                if not shape:
                    return DerivationCheck(
                        False, line.number, "conclusion is not an R4 generalisation"
                    )
                x = line.formula.right.var
                if x in free_vars(line.formula.left):
                    return DerivationCheck(
                        False, line.number, f"R4 side condition: {x} free in antecedent"
                    )
        else:  # pragma: no cover - parser restricts kinds
            return DerivationCheck(False, line.number, f"unknown justification {kind}")
        by_number[line.number] = line.formula
    if deriv.qed not in by_number:
        return DerivationCheck(False, deriv.qed, "qed references a missing line")
    return DerivationCheck(True, None, None, by_number[deriv.qed])


# --- soundness audit -----------------------------------------------------------------


@dataclass(frozen=True)
class AuditFailure:
    schema: str
    instance: str
    algebra_size: int
    domain_size: int
    tables: str
    value: int


@dataclass(frozen=True)
class AuditReport:
    system: str
    max_algebra: int
    max_domain: int
    n_instances: int
    n_evaluations: int
    failures: tuple[AuditFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _propositional_instances(sid: str) -> Iterator[Formula]:
    tpl = SCHEMAS[sid].template
    assert tpl is not None
    metas = sorted({node.name for node in subformulas(tpl) if isinstance(node, Meta)})
    p, q, r = Pred("p", ()), Pred("q", ()), Pred("r", ())
    if len(metas) <= 1:
        pool: list[tuple[Formula, ...]] = [(p,), (Neg(p),), (And(p, q),), (Imp(p, q),)]
    elif len(metas) == 2:
        pool = [(p, q), (q, p), (p, Neg(q)), (Neg(p), q), (And(p, q), r), (p, p)]
    else:
        pool = [(p, q, r), (p, p, q), (Neg(p), q, r)]
    for combo in pool:
        binds = dict(zip(metas, combo))
        yield _instantiate(tpl, binds)


def _instantiate(tpl: Formula, binds: Mapping[str, Formula]) -> Formula:
    """tpl with its meta-variables bound.  Each template node is rebuilt
    once, so the shared sides of a <-> stay shared in the instance."""
    built: dict[int, Formula] = {}  # by the id of a template node

    def build(node: Formula) -> Formula:
        out = built.get(id(node))
        if out is None:
            if isinstance(node, Meta):
                out = binds[node.name]
            elif isinstance(node, (And, Or, Imp)):
                out = type(node)(build(node.left), build(node.right))
            elif isinstance(node, Neg):
                out = Neg(build(node.body))
            else:
                out = node
            built[id(node)] = out
        return out

    return build(tpl)


_QUANT_INSTANCES: dict[str, tuple[Formula, ...]] = {
    "A1": (
        Imp(Pred("P", (FuncApp("c", ()),)), Exists("x", Pred("P", (Var("x"),)))),
        Imp(
            And(Pred("P", (FuncApp("c", ()),)), Pred("q", ())),
            Exists("x", And(Pred("P", (Var("x"),)), Pred("q", ()))),
        ),
    ),
    "A2": (
        Imp(Forall("x", Pred("P", (Var("x"),))), Pred("P", (FuncApp("c", ()),))),
        Imp(
            Forall("x", Imp(Pred("P", (Var("x"),)), Pred("q", ()))),
            Imp(Pred("P", (FuncApp("c", ()),)), Pred("q", ())),
        ),
    ),
}


def audit_soundness(
    system: str,
    max_domain: int = 2,
    max_algebra: int = 4,
    eval_cap: int = 2_000_000,
) -> AuditReport:
    """Evaluate a generated family of axiom instances over every saturated
    structure within budget and every admissible negated-atom table,
    reporting any instance that misses the top value.

    Each system is audited under its own negation semantics: structural
    pushes with atom choices for qn4/qn3, per-occurrence choices for qcw.
    For qn4 none are expected; auditing qn3 over these (non-explosive)
    structures is expected to surface N14 countermodels, reported here the
    same way.
    """
    if system not in SYSTEMS:
        raise ProofError(f"unknown system {system!r}")
    # an empty budget would audit nothing and still report no failures
    if max_algebra < 1:
        raise ProofError(f"max_algebra must be at least 1, got {max_algebra}")
    if max_domain < 1:
        raise ProofError(f"max_domain must be at least 1, got {max_domain}")
    failures: list[AuditFailure] = []
    n_inst = 0
    n_eval = 0
    algebras = list(enumerate_heyting(max_algebra))
    n4 = [saturate(alg, "n4") for alg in algebras]
    own = [saturate(alg, "comega") for alg in algebras] if system == "qcw" else n4
    instances = [
        (sid, inst)
        for sid in SYSTEMS[system]
        for inst in (_QUANT_INSTANCES[sid] if SCHEMAS[sid].template is None else _propositional_instances(sid))
    ]
    walks = _propositional_walks([(sid, inst) for sid, inst in instances if SCHEMAS[sid].template], own)
    for sid, inst in instances:
        n_inst += 1
        if SCHEMAS[sid].template is None:
            try:
                n_eval += _audit_quantified(sid, inst, n4, max_domain, failures, eval_cap - n_eval)
            except CapExceeded as exc:  # reported against the whole audit
                if exc.cap == "eval_cap":
                    _check_budget(n_eval + exc.predicted, eval_cap)
                raise
            continue
        count = 0
        for valid, found in next(walks):
            count += valid
            # one at a time, the total would have stopped one past the cap
            _check_budget(min(n_eval + count, eval_cap + 1), eval_cap)
            failures += found
        n_eval += count
    return AuditReport(
        system=system,
        max_algebra=max_algebra,
        max_domain=max_domain,
        n_instances=n_inst,
        n_evaluations=n_eval,
        failures=tuple(failures),
    )


def _check_budget(count: int, budget: int) -> None:
    if count > budget:
        raise CapExceeded(
            "audit evaluation budget exhausted", cap="eval_cap", limit=budget, predicted=count
        )


def _propositional_walks(
    props: list[tuple[str, Formula]], structures: list[FStructure]
) -> Iterator[list[tuple[int, list[AuditFailure]]]]:
    """For each (schema, instance) of props in order, its runs over the
    structures: each run's number of assignments (one evaluation each) and
    the ones below top, by position.

    Instances with the same sorted atoms, the same negated atom keys and no
    comega occurrence are walked as a group, the parts of one
    ``search._index_walk`` per structure, with the first member's probe:
    its index, positions and decoding are each member's own.  A group is
    walked when its first member comes up.  An instance with occurrence
    digits is walked alone, since ``AssignmentIndex.choose`` narrows
    ``valid`` per occurrence."""
    groups: dict[object, list[int]] = {}
    probes = []
    for k, (_, inst) in enumerate(props):
        atoms = sorted(prop_atoms(inst))
        model = _prop_model(structures[0], dict.fromkeys(atoms, 0))
        probe = _probe((inst, {}, (), (), ()), model, EvalContext(model))
        probes.append(([("pred", a) for a in atoms], list(probe.options), probe.occs))
        # an instance with occurrence digits is a group of its own
        groups.setdefault(k if probe.occs else (tuple(atoms), tuple(sorted(probe.options))), []).append(k)
    group_of = {k: members for members in groups.values() for k in members}
    walked: dict[int, list[tuple[int, list[AuditFailure]]]] = {}
    for k in range(len(props)):
        if k not in walked:
            members = group_of[k]
            # paths key comega occurrences only, and a group has none
            parts = [(props[m][1], ()) for m in members]
            texts = [formula_to_text(inst) for inst, _ in parts]
            walked.update((m, []) for m in members)
            for fs in structures:
                for _, p, vectors, valid, decode in _index_walk(parts, fs, *probes[k], ASSIGNMENT_CAP, ()):
                    for m, text, value in zip(members, texts, vectors):
                        found = []
                        for i in _bits(p.exceeds(p.top, value) & valid):
                            table, asg = decode(i)
                            tables = f"atoms={table} negs={asg.fingerprint()}"
                            found.append(AuditFailure(props[m][0], text, fs.algebra.size, 0, tables, p.decode(value, i)))
                        walked[m].append((valid.bit_count(), found))
        yield walked.pop(k)


def _collect_term_funcs(t: Term, funcs: dict[str, int]) -> None:
    if isinstance(t, FuncApp):
        funcs[t.sym] = len(t.args)
        for a in t.args:
            _collect_term_funcs(a, funcs)


def _ground(t: Term, ftab: Mapping[str, Mapping[tuple, int]]) -> Term:
    """A closed function term as the domain element its table gives it."""
    if isinstance(t, FuncApp):
        args = tuple(_ground(a, ftab) for a in t.args)
        if all(isinstance(a, NameConst) for a in args):
            return NameConst(ftab[t.sym][tuple(a.ref for a in args)])
        return FuncApp(t.sym, args)
    return t


def _audit_quantified(
    sid: str,
    inst: Formula,
    structures: list[FStructure],
    max_domain: int,
    failures: list[AuditFailure],
    budget: int,
) -> int:
    """Evaluate a closed instance over every domain of at most max_domain
    elements, every predicate table and every function table, under every
    admissible table of negated-predicate values, counting one evaluation
    per negation table and listing the ones below top by (predicate table,
    function table, negation table).

    The domain is the quantifier scope.  The predicate cells are the atoms
    and the negated keys of ``search._index_walk``, in ``_all_tables``
    order (first cell most significant), and each function table's
    grounded instance is a part of it: one vector evaluation per function
    table covers every predicate and negation table of a run.  Each
    function table's instance is grounded once per domain size.  The
    budget trips where one evaluation per (predicate table, function
    table) would, before the structure and domain size that hold it are
    walked."""
    text = formula_to_text(inst)
    preds: dict[str, int] = {}
    funcs: dict[str, int] = {}
    for node in subformulas(inst):
        if isinstance(node, Pred):
            preds[node.sym] = len(node.args)
            for a in node.args:
                _collect_term_funcs(a, funcs)
    domains = []
    for dsize in range(1, max_domain + 1):
        domain = tuple(range(dsize))
        cells = [(sym, args) for sym, arity in sorted(preds.items()) for args in itertools.product(domain, repeat=arity)]
        keys = [("pred", sym, args) if args else ("pred", sym) for sym, args in cells]
        grounded = [(map_terms(inst, lambda t: _ground(t, ftab)), ()) for ftab in _all_tables(funcs, domain, domain)]
        domains.append((domain, cells, keys, grounded))
    count = 0
    for fs in structures:
        n = fs.algebra.size
        for domain, cells, keys, grounded in domains:
            total = sum(map(len, fs.negs)) ** len(cells) * len(grounded)
            if count + total > budget:  # trip where one table at a time would
                for table in itertools.product(range(n), repeat=len(cells)):
                    size = math.prod(len(fs.negs[v]) for v in table)
                    for _ in grounded:
                        count += size
                        _check_budget(count, budget)
            count += total
            hits = []
            runs = _index_walk(grounded, fs, keys, keys, [], math.inf, domain)
            for run, (_, p, vectors, valid, decode) in enumerate(runs):
                for f, value in enumerate(vectors):
                    # (run, i) orders the positions of a table swept in runs of its own
                    for i in _bits(p.exceeds(p.top, value) & valid):
                        hits.append((tuple(decode(i)[0].values()), f, run, i, p.decode(value, i)))
            for table, *_, value in sorted(hits):
                ptab: dict[str, dict] = {}
                for (sym, args), v in zip(cells, table):
                    ptab.setdefault(sym, {})[args] = v
                failures.append(AuditFailure(sid, text, n, len(domain), repr(ptab), value))
    return count


def _all_tables(symbols: Mapping[str, int], domain, codomain) -> list[dict]:
    """Every interpretation table for the given arities."""
    out: list[dict] = [{}]
    for sym, arity in sorted(symbols.items()):
        keys = list(itertools.product(domain, repeat=arity))
        new_out = []
        for base in out:
            for values in itertools.product(codomain, repeat=len(keys)):
                table = dict(base)
                table[sym] = dict(zip(keys, values))
                new_out.append(table)
        out = new_out
    return out
