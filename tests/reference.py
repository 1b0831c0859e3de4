"""Reference semantics: the plain recursive definitions, kept as the oracle
for the bit-sliced kernel and the vector folds.

    ||u = v||  = meet over (x, a) in u of a -> ||x in v||
                 meet over (y, b) in v of b -> ||y in u||
    ||u in v|| = join over (x, a) in v of a ^ ||x = u||

``Reference.eval`` evaluates a choice-free formula by the textbook
clauses, one instance at a time: negation is the pseudo-complement, and a
bounded quantifier (under ``bounded_opt``) ranges over the entries of its
bound.
"""

from __future__ import annotations

from pst.syntax import And, Bot, Eq, Forall, Imp, Mem, NameConst, Neg, Or, Pred, bounded_parts
from pst.valuation import SetModel


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

