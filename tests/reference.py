"""Reference semantics: the plain recursive definitions, kept as the oracle
for the bit-sliced kernel and the vector folds.

    ||u = v||  = meet over (x, a) in u of a -> ||x in v||
                 meet over (y, b) in v of b -> ||y in u||
    ||u in v|| = join over (x, a) in v of a ^ ||x = u||

``Reference.eval`` evaluates a choice-free formula by the textbook
clauses, one instance at a time: negation is the pseudo-complement, and a
bounded quantifier (under ``bounded_opt``) ranges over the entries of its
bound.

``enumerated_verdicts``, ``enumerated_leibniz`` and ``enumerated_induction``
are the oracle for the assignment index: they list every assignment with
``enumerate_assignments`` and evaluate the sentence under each one.
"""

from __future__ import annotations

from pst.syntax import (
    And,
    Bot,
    Eq,
    Forall,
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
    substitute,
)
from pst.valuation import (
    ASSIGNMENT_CAP,
    EvalContext,
    SetModel,
    Verdict,
    enumerate_assignments,
    eval_sentence,
)


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



def enumerated_verdicts(phi, model: SetModel, cap: int = ASSIGNMENT_CAP) -> dict[str, Verdict]:
    """check_valid under both quantifications, one assignment at a time."""
    ctx = EvalContext(model)
    assignments = enumerate_assignments(phi, model, ctx, cap)
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
            subject=formula_to_text(phi),
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


def enumerated_leibniz(model: SetModel, var: str, phi, rank: int, quantification: str, cap: int = ASSIGNMENT_CAP):
    """(value, detail) of check_leibniz for one formula with negation."""
    ctx = EvalContext(model)
    alg = model.algebra
    names = [nid for nid in model.scope if model.store.get(nid).rank <= rank]
    lo = alg.top
    first_violation: tuple[str, ...] = ()
    for u in names:
        for v in names:
            eq_uv = ctx.eval_eq(u, v)
            test = Imp(substitute(phi, var, NameConst(u)), substitute(phi, var, NameConst(v)))
            ok_some = False
            for asg in enumerate_assignments(test, model, ctx, cap):
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
    """(value, valid, n_assignments) of check_induction."""
    fresh_y = var + "_y"
    while fresh_y in free_vars(phi):
        fresh_y += "_"
    phi_y = substitute(phi, var, Var(fresh_y))
    schema = Imp(
        Forall(var, Imp(Forall(fresh_y, Imp(Mem(Var(fresh_y), Var(var)), phi_y)), phi)),
        Forall(var, phi),
    )
    verdict = enumerated_verdicts(schema, model, cap)[quantification]
    value = verdict.value_lo if quantification == "all_assignments" else verdict.value_hi
    return value, verdict.valid, verdict.n_assignments
