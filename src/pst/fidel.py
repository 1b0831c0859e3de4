"""F-structures: algebras paired with candidate negation sets.

An F-structure attaches to every algebra element x a nonempty set N_x of
admissible negation values, giving a non-deterministic semantics for a
paraconsistent negation.  Two validation disciplines are provided, one for
the Nelson-style strong negation (kind ``n4``) and one for the da Costa
style (kind ``comega``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import (
    AlgebraFormatError,
    FiniteHeytingAlgebra,
    _parse_algebra_block,
    _strip_comments,
    format_algebra_text,
)
from .errors import PstError

KINDS = ("n4", "comega")


class FidelError(PstError):
    pass


class EmptyNegSet(FidelError):
    def __init__(self, x: int):
        super().__init__(f"N_{x} is empty")
        self.x = x


class ClauseII(FidelError):
    def __init__(self, x: int, y: int, xp: int, yp: int, which: str):
        super().__init__(
            f"clause (ii) [{which}] fails at x={x}, y={y}, x'={xp}, y'={yp}"
        )
        self.x, self.y, self.xp, self.yp, self.which = x, y, xp, yp, which


class ClauseIII(FidelError):
    def __init__(self, x: int, y: int, yp: int):
        super().__init__(f"clause (iii) fails at x={x}, y={y}, y'={yp}")
        self.x, self.y, self.yp = x, y, yp


class LemFails(FidelError):
    def __init__(self, x: int, xp: int):
        super().__init__(f"x v x' = 1 fails at x={x}, x'={xp}")
        self.x, self.xp = x, xp


class NoDoubleNegWitness(FidelError):
    def __init__(self, x: int, xp: int):
        super().__init__(
            f"no x'' in N_{xp} with x'' <= {x} (double negation unsupported)"
        )
        self.x, self.xp = x, xp


@dataclass(frozen=True)
class FStructure:
    """An algebra together with one sorted candidate-negation list per
    element.  Immutable and freely shareable after construction."""

    algebra: FiniteHeytingAlgebra
    negs: tuple[tuple[int, ...], ...]
    kind: str


def _normalize(algebra: FiniteHeytingAlgebra, negs: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    if len(negs) != algebra.size:
        raise FidelError(
            f"need one candidate set per element ({algebra.size}), got {len(negs)}"
        )
    out = []
    for x, ns in enumerate(negs):
        s = tuple(sorted(set(ns)))
        if any(e < 0 or e >= algebra.size for e in s):
            raise FidelError(f"N_{x} mentions elements outside the carrier")
        out.append(s)
    return tuple(out)


def validate_n4(algebra: FiniteHeytingAlgebra, negs: Sequence[Sequence[int]]) -> FStructure:
    """Check the strong-negation closure clauses and return the structure.

    (i)   every N_x is nonempty;
    (ii)  x' in N_x, y' in N_y imply x' v y' in N_{x ^ y},
          x' ^ y' in N_{x v y}, and x in N_{x'};
    (iii) y' in N_y implies x ^ y' in N_{x -> y}.

    The first violated clause is raised with its witnesses.  Note that
    saturated families over non-Boolean algebras genuinely violate (iii);
    see ``saturated_clause_iii_holds``.
    """
    alg = algebra
    fam = _normalize(alg, negs)
    for x in range(alg.size):
        if not fam[x]:
            raise EmptyNegSet(x)
    for x in range(alg.size):
        for y in range(alg.size):
            for xp in fam[x]:
                for yp in fam[y]:
                    if alg.join_(xp, yp) not in fam[alg.meet_(x, y)]:
                        raise ClauseII(x, y, xp, yp, "join-into-meet")
                    if alg.meet_(xp, yp) not in fam[alg.join_(x, y)]:
                        raise ClauseII(x, y, xp, yp, "meet-into-join")
    for x in range(alg.size):
        for xp in fam[x]:
            if x not in fam[xp]:
                raise ClauseII(x, x, xp, xp, "x-in-N-of-x'")
    for x in range(alg.size):
        for y in range(alg.size):
            for yp in fam[y]:
                if alg.meet_(x, yp) not in fam[alg.imp_(x, y)]:
                    raise ClauseIII(x, y, yp)
    return FStructure(alg, fam, "n4")


def validate_comega(algebra: FiniteHeytingAlgebra, negs: Sequence[Sequence[int]]) -> FStructure:
    """Check the da Costa-style conditions and return the structure.

    Accepts iff every N_x is nonempty, x v x' = 1 for every x' in N_x
    (soundness of excluded middle for the chosen negation), and every
    x' in N_x admits x'' in N_{x'} with x'' <= x (soundness of double
    negation elimination).
    """
    alg = algebra
    fam = _normalize(alg, negs)
    for x in range(alg.size):
        if not fam[x]:
            raise EmptyNegSet(x)
    for x in range(alg.size):
        for xp in fam[x]:
            if alg.join_(x, xp) != alg.top:
                raise LemFails(x, xp)
    for x in range(alg.size):
        for xp in fam[x]:
            if not any(alg.le(xpp, x) for xpp in fam[xp]):
                raise NoDoubleNegWitness(x, xp)
    return FStructure(alg, fam, "comega")


def saturate(algebra: FiniteHeytingAlgebra, kind: str = "n4") -> FStructure:
    """The saturated family N_x = { y : x v y = 1 }.

    The result always satisfies the comega conditions.  It satisfies the
    full n4 clauses iff the algebra is Boolean (clause (iii) at y = 0
    forces x v (x -> 0) = 1); construction therefore does not validate.
    """
    if kind not in KINDS:
        raise FidelError(f"unknown kind {kind!r}")
    alg = algebra
    fam = tuple(
        tuple(y for y in range(alg.size) if alg.join_(x, y) == alg.top)
        for x in range(alg.size)
    )
    return FStructure(alg, fam, kind)


def saturated_clause_iii_holds(algebra: FiniteHeytingAlgebra) -> tuple[int, int, int] | None:
    """First clause-(iii) violation of the saturated family, or None.

    Returns (x, y, y') with y' in N_y but x ^ y' not in N_{x -> y}.
    """
    fs = saturate(algebra)
    alg = algebra
    for x in range(alg.size):
        for y in range(alg.size):
            for yp in fs.negs[y]:
                if alg.meet_(x, yp) not in fs.negs[alg.imp_(x, y)]:
                    return (x, y, yp)
    return None


def is_leibniz_comega(f: FStructure) -> bool:
    """True iff top is an admissible negation of every non-top element and
    bottom is an admissible negation of top."""
    alg = f.algebra
    for x in range(alg.size):
        if x != alg.top and alg.top not in f.negs[x]:
            return False
    return alg.bottom in f.negs[alg.top]


def algebra_embeddings(a: FiniteHeytingAlgebra, b: FiniteHeytingAlgebra) -> Iterator[tuple[int, ...]]:
    """Every injective map a -> b preserving meet, join, imp, 0 and 1, as
    element image tuples in permutation order."""
    return (img for img in itertools.permutations(range(b.size), a.size) if preserves_heyting(img, a, b))


def preserves_heyting(img: Sequence[int], a: FiniteHeytingAlgebra, b: FiniteHeytingAlgebra) -> bool:
    """img, an element image tuple, is a map a -> b preserving meet, join,
    imp, 0 and 1."""
    return (
        len(img) == a.size
        and img[a.top] == b.top
        and img[a.bottom] == b.bottom
        and all(0 <= e < b.size for e in img)
        and all(
            img[a.meet_(x, y)] == b.meet_(img[x], img[y])
            and img[a.join_(x, y)] == b.join_(img[x], img[y])
            and img[a.imp_(x, y)] == b.imp_(img[x], img[y])
            for x in range(a.size)
            for y in range(a.size)
        )
    )


def find_algebra_embedding(a: FiniteHeytingAlgebra, b: FiniteHeytingAlgebra) -> tuple[int, ...] | None:
    """First injective map a -> b preserving meet, join, imp, 0 and 1."""
    return next(algebra_embeddings(a, b), None)


def is_substructure(f: FStructure, g: FStructure) -> tuple[int, ...] | None:
    """Embedding of f into g mapping each N_x into N'_{image(x)}, or None.

    The embedding (element image tuple) is the certificate.
    """
    if f.kind != g.kind:
        return None
    return next(
        (
            img
            for img in algebra_embeddings(f.algebra, g.algebra)
            if all(img[xp] in g.negs[img[x]] for x in range(f.algebra.size) for xp in f.negs[x])
        ),
        None,
    )


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def parse_fstructure_text(text: str) -> tuple[str, FStructure]:
    """Parse the fstructure format with an inline algebra block."""
    lines = _strip_comments(text)
    if not lines or not lines[0].startswith("fstructure"):
        raise AlgebraFormatError("expected 'fstructure <ident> kind=<n4|comega>'")
    head = lines[0].split()
    if len(head) != 3 or not head[2].startswith("kind="):
        raise AlgebraFormatError("expected 'fstructure <ident> kind=<n4|comega>'")
    ident = head[1]
    kind = head[2][5:]
    if kind not in KINDS:
        raise AlgebraFormatError(f"unknown kind {kind!r}")
    _, alg, rest = _parse_algebra_block(lines[1:])
    negs: list[list[int]] = [[] for _ in range(alg.size)]
    seen = set()
    i = 0
    while i < len(rest) and rest[i] != "end":
        line = rest[i]
        if not line.startswith("N"):
            raise AlgebraFormatError(f"expected 'N <element>: ...', got {line!r}")
        head_part, _, tail = line.partition(":")
        try:
            x = int(head_part.split()[1])
            values = [int(tok) for tok in tail.split()]
        except (IndexError, ValueError) as exc:
            raise AlgebraFormatError(f"bad N line {line!r}") from exc
        if x < 0 or x >= alg.size:
            raise AlgebraFormatError(f"N line for unknown element {x}")
        negs[x] = values
        seen.add(x)
        i += 1
    if i >= len(rest):
        raise AlgebraFormatError("expected final 'end'")
    if seen != set(range(alg.size)):
        missing = sorted(set(range(alg.size)) - seen)
        raise AlgebraFormatError(f"missing N lines for elements {missing}")
    # parsing never validates; `validate_n4` / `validate_comega` are explicit
    return ident, FStructure(alg, _normalize(alg, negs), kind)


def format_fstructure_text(ident: str, f: FStructure) -> str:
    alg_text = format_algebra_text(f"{ident}_alg", f.algebra).rstrip("\n")
    n_lines = [
        f"N {x}: " + " ".join(str(e) for e in f.negs[x])
        for x in range(f.algebra.size)
    ]
    return "\n".join(
        [f"fstructure {ident} kind={f.kind}", alg_text, *n_lines, "end", ""]
    )
