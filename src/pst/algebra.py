"""Finite bounded distributive lattices and Heyting algebras.

Elements are dense indices ``0..size-1``.  Order, meet, join and relative
pseudo-complement tables are precomputed at construction, so every lattice
operation downstream is a table lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import CapExceeded, PstError

if TYPE_CHECKING:
    from .kernel import Planes

ENUM_HARD_CAP = 7
REFINABLE_HARD_CAP = 15


class AlgebraError(PstError):
    """Base for lattice / algebra construction failures."""


class NotAPoset(AlgebraError):
    def __init__(self, why: str, pair: tuple[int, int]):
        super().__init__(f"not a partial order ({why} fails at {pair})")
        self.why = why
        self.pair = pair


class NoMeet(AlgebraError):
    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"pair {pair} has no greatest lower bound")
        self.pair = pair


class NoJoin(AlgebraError):
    def __init__(self, pair: tuple[int, int]):
        super().__init__(f"pair {pair} has no least upper bound")
        self.pair = pair


class NotBounded(AlgebraError):
    def __init__(self, which: str):
        super().__init__(f"lattice has no {which} element")
        self.which = which


class NotDistributive(AlgebraError):
    def __init__(self, triple: tuple[int, int, int]):
        super().__init__(
            f"meet does not distribute over join at {triple}; "
            "no Heyting implication exists"
        )
        self.triple = triple


@dataclass(frozen=True)
class FiniteLattice:
    """A finite bounded lattice given by its order relation.

    ``leq[i][j]`` is True iff element i is below element j.  ``meet`` and
    ``join`` are total tables; ``top`` / ``bottom`` are element indices.
    """

    size: int
    leq: tuple[tuple[bool, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    top: int
    bottom: int


@dataclass(frozen=True)
class FiniteHeytingAlgebra:
    """A finite Heyting algebra: distributive lattice plus implication.

    ``imp[x][y]`` is the relative pseudo-complement x -> y, the largest z
    with x /\\ z <= y.  ``boolean_flag`` records whether every element is
    complemented (x \\/ (x -> 0) = 1).
    """

    lattice: FiniteLattice
    imp: tuple[tuple[int, ...], ...]
    boolean_flag: bool
    # set to None in __init__ and filled by ``planes``: caching into a key
    # added to the instance dict later (a cached_property) would slow every
    # attribute read of the algebra, about 20 % for meet_ under CPython 3.11
    _planes: Planes | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.lattice.size

    @property
    def top(self) -> int:
        return self.lattice.top

    @property
    def bottom(self) -> int:
        return self.lattice.bottom

    def le(self, x: int, y: int) -> bool:
        return self.lattice.leq[x][y]

    def meet_(self, x: int, y: int) -> int:
        return self.lattice.meet[x][y]

    def join_(self, x: int, y: int) -> int:
        return self.lattice.join[x][y]

    def imp_(self, x: int, y: int) -> int:
        return self.imp[x][y]

    def neg_(self, x: int) -> int:
        """Pseudo-complement x -> 0."""
        return self.imp[x][self.lattice.bottom]

    def meet_all(self, xs: Iterable[int]) -> int:
        out = self.lattice.top
        for x in xs:
            out = self.lattice.meet[out][x]
        return out

    def join_all(self, xs: Iterable[int]) -> int:
        out = self.lattice.bottom
        for x in xs:
            out = self.lattice.join[out][x]
        return out

    def elements(self) -> range:
        return range(self.lattice.size)

    @property
    def planes(self) -> Planes:
        """The Birkhoff planes of this algebra (``kernel.Planes``), built on
        first use and kept with the algebra."""
        if self._planes is None:
            from .kernel import Planes  # kernel imports this module

            object.__setattr__(self, "_planes", Planes(self))
        return self._planes


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _least_cover(mask: int, sets: Sequence[int]) -> int | None:
    """The lowest w in mask whose set ``sets[w]`` holds all of mask."""
    rest = mask
    while rest:
        w = _lowest(rest)
        if not mask & ~sets[w]:
            return w
        rest &= rest - 1
    return None


def validate_lattice(leq_rows: Sequence[Sequence[object]]) -> FiniteLattice:
    """Check a candidate order relation and derive the lattice tables.

    Accepts any square matrix of truthy/falsy entries.  Raises the first
    failed property with the offending pair.  The order is read as bit
    masks: bit j of ``up[i]`` is set iff i <= j, bit j of ``down[i]`` iff
    j <= i.
    """
    n = len(leq_rows)
    if n < 1 or any(len(row) != n for row in leq_rows):
        raise NotAPoset("shape", (n, n))
    leq = tuple(tuple(bool(v) for v in row) for row in leq_rows)
    up = [sum(1 << j for j, v in enumerate(row) if v) for row in leq]
    down = [sum(1 << j for j, v in enumerate(col) if v) for col in zip(*leq)]

    for i in range(n):
        if not leq[i][i]:
            raise NotAPoset("reflexivity", (i, i))
    for i in range(n):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            raise NotAPoset("antisymmetry", (i, _lowest(both)))
    for i in range(n):
        for j in range(n):
            if leq[i][j] and up[j] & ~up[i]:
                raise NotAPoset("transitivity", (i, _lowest(up[j] & ~up[i])))

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            glb = _least_cover(down[x] & down[y], down)
            if glb is None:
                raise NoMeet((x, y))
            meet[x][y] = glb
            lub = _least_cover(up[x] & up[y], up)
            if lub is None:
                raise NoJoin((x, y))
            join[x][y] = lub

    full = (1 << n) - 1
    top = _least_cover(full, down)
    if top is None:
        raise NotBounded("top")
    bottom = _least_cover(full, up)
    if bottom is None:
        raise NotBounded("bottom")

    return FiniteLattice(
        size=n,
        leq=leq,
        meet=tuple(tuple(row) for row in meet),
        join=tuple(tuple(row) for row in join),
        top=top,
        bottom=bottom,
    )


def _birkhoff(lat: FiniteLattice) -> tuple[list[int], list[int]]:
    """The join-irreducibles in element order, and each element's code: the
    mask of the irreducibles below it, bit k for the k-th.  An element is
    join-irreducible iff its strict down-set is the down-set of an element
    (the largest below it); the bottom's is empty, which none is."""
    down = [sum(1 << x for x, le in enumerate(col) if le) for col in zip(*lat.leq)]
    principal = set(down)
    irr = [e for e, d in enumerate(down) if d & ~(1 << e) in principal]
    codes = [sum(1 << k for k, j in enumerate(irr) if d >> j & 1) for d in down]
    return irr, codes


def _heyting(lat: FiniteLattice, codes: Sequence[int]) -> FiniteHeytingAlgebra:
    """The Heyting algebra of a distributive lattice whose element e is the
    down-set ``codes[e]``: x -> y is the union of the codes d with d & x
    inside y, itself such a code, so the first one from the largest down."""
    largest = sorted(zip(codes, range(len(codes))), key=lambda ce: -ce[0].bit_count())
    imp = []
    for cx in codes:
        row = []
        for cy in codes:
            outside = cx & ~cy
            for c, e in largest:
                if not c & outside:
                    row.append(e)
                    break
        imp.append(tuple(row))
    flag = all(lat.join[x][row[lat.bottom]] == lat.top for x, row in enumerate(imp))
    return FiniteHeytingAlgebra(lattice=lat, imp=tuple(imp), boolean_flag=flag)


def _inclusion(codes: Sequence[int]) -> tuple[tuple[bool, ...], ...]:
    """The order of the down-sets codes: inclusion."""
    return tuple(tuple([not a & ~b for b in codes]) for a in codes)


def _from_codes(codes: Sequence[int], leq: tuple[tuple[bool, ...], ...] | None = None) -> FiniteHeytingAlgebra:
    """The Heyting algebra whose element e is the down-set ``codes[e]`` of
    a poset: the codes are distinct, closed under ``&`` and ``|``, and hold
    0.  Order is inclusion (leq, where the caller has it), meet is ``&``,
    join is ``|``, and the top is the largest code, the union of all."""
    elem = {c: e for e, c in enumerate(codes)}
    lat = FiniteLattice(
        size=len(codes),
        leq=leq or _inclusion(codes),
        meet=tuple(tuple([elem[a & b] for b in codes]) for a in codes),
        join=tuple(tuple([elem[a | b] for b in codes]) for a in codes),
        top=elem[max(codes, key=int.bit_count)],
        bottom=elem[0],
    )
    return _heyting(lat, codes)


def derive_heyting(lat: FiniteLattice) -> FiniteHeytingAlgebra:
    """Compute the implication table x -> y = max { z : x /\\ z <= y }.

    Fails with the offending triple when meet does not distribute over
    join; residuation is then unsatisfiable.  The lattice is distributive
    iff its Birkhoff code maps every join to the union of the two codes (it
    maps every meet to the intersection in any lattice).
    """
    _, codes = _birkhoff(lat)
    for cx, row in zip(codes, lat.join):
        for cy, j in zip(codes, row):
            if codes[j] != cx | cy:
                _raise_first_undistributed(lat)
    return _heyting(lat, codes)


def _raise_first_undistributed(lat: FiniteLattice) -> None:
    n = lat.size
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if lat.meet[x][lat.join[y][z]] != lat.join[lat.meet[x][y]][lat.meet[x][z]]:
                    raise NotDistributive((x, y, z))


def is_boolean(h: FiniteHeytingAlgebra) -> bool:
    """True iff every element has a complement: x \\/ (x -> 0) = 1."""
    lat = h.lattice
    return all(lat.join[x][h.imp[x][lat.bottom]] == lat.top for x in range(lat.size))


def heyting_from_leq(leq_rows: Sequence[Sequence[object]]) -> FiniteHeytingAlgebra:
    return derive_heyting(validate_lattice(leq_rows))


def chain(n: int) -> FiniteHeytingAlgebra:
    """The n-element chain 0 < 1 < ... < n-1 as a Heyting algebra."""
    return _from_codes([(1 << i) - 1 for i in range(n)])


def boolean_algebra(n_atoms: int) -> FiniteHeytingAlgebra:
    """The Boolean algebra of subsets of an n_atoms-element set."""
    return _from_codes(range(1 << n_atoms))


# ---------------------------------------------------------------------------
# enumeration of distributive lattices up to isomorphism
# ---------------------------------------------------------------------------


def _posets(k: int, limit: int) -> list[tuple[int, list[int]]]:
    """Every poset on 0..k-1 whose order refines the integer order and that
    has at most limit down-sets, as (pair mask, down-sets as bitmasks),
    sorted by pair mask: bit idx of the pair mask is set iff i < j for the
    idx-th pair (i, j), i < j, in lexicographic order.

    Every finite poset has a linear extension, so every isomorphism class
    appears at least once.  Element j is added as a maximal element whose
    strict down-set is a down-set of 0..j-1; that only adds down-sets, so a
    prefix with more than limit of them is dropped."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    bit = {pair: 1 << idx for idx, pair in enumerate(pairs)}
    out: list[tuple[int, list[int]]] = []

    def extend(j: int, downs: list[int], mask: int) -> None:
        if j == k:
            out.append((mask, downs))
            return
        for below in downs:
            grown = downs + [s | 1 << j for s in downs if s & below == below]
            if len(grown) <= limit:
                above = sum(bit[i, j] for i in range(j) if below >> i & 1)
                extend(j + 1, grown, mask | above)

    extend(0, [0], 0)
    out.sort(key=lambda entry: entry[0])
    return out


def canonical_key(h: FiniteHeytingAlgebra) -> bytes:
    """Order-relation encoding minimised over isomorphisms.

    Permutations are restricted to classes preserving (|down-set|, |up-set|),
    which every isomorphism must respect.
    """
    return _order_key(h.lattice.leq)


def _order_key(leq: Sequence[Sequence[bool]]) -> bytes:
    """``canonical_key`` of the lattice whose order is leq."""
    n = len(leq)
    inv = [(sum(col), sum(row)) for row, col in zip(leq, zip(*leq))]
    order = sorted(range(n), key=inv.__getitem__)
    classes = [list(c) for _, c in itertools.groupby(order, key=inv.__getitem__)]
    best: bytes | None = None
    for parts in itertools.product(*(itertools.permutations(c) for c in classes)):
        seq = [i for part in parts for i in part]  # seq[new] = old
        enc = bytes(
            1 if leq[seq[a]][seq[b]] else 0 for a in range(n) for b in range(n)
        )
        if best is None or enc < best:
            best = enc
    assert best is not None
    return best


def enumerate_heyting(max_size: int, hard_cap: int = ENUM_HARD_CAP) -> Iterator[FiniteHeytingAlgebra]:
    """All distributive lattices with at most max_size elements, up to
    isomorphism, each carrying its Heyting implication.

    Uses the down-set representation: every finite distributive lattice is
    the lattice of down-sets of a finite poset, and non-isomorphic posets
    give non-isomorphic lattices.  Deterministic order: by size, then by
    canonical key.  Each labelled poset is keyed by the inclusion order of
    its down-sets, and its tables are built only for a new key.
    """
    if max_size < 0:
        raise AlgebraError(f"max_size must be at least 0, got {max_size}")
    if max_size > hard_cap:
        raise CapExceeded(
            f"enumeration capped at size {hard_cap}",
            cap="ENUM_HARD_CAP",
            limit=hard_cap,
            predicted=max_size,
        )
    found: dict[bytes, FiniteHeytingAlgebra] = {}
    for k in range(0, max_size):
        for _, downs in _posets(k, max_size):
            downs.sort(key=lambda s: (bin(s).count("1"), s))
            leq = _inclusion(downs)
            key = _order_key(leq)
            if key not in found:
                found[key] = _from_codes(downs, leq)
    for _, alg in sorted(found.items(), key=lambda kv: (kv[1].size, kv[0])):
        yield alg


# ---------------------------------------------------------------------------
# refinability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RefinabilityReport:
    refinable: bool
    certificates: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    failing_subset: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.refinable


def _is_antichain(h: FiniteHeytingAlgebra, elems: Sequence[int]) -> bool:
    leq = h.lattice.leq
    for a, b in itertools.combinations(elems, 2):
        if leq[a][b] or leq[b][a]:
            return False
    return True


def check_refinable(h: FiniteHeytingAlgebra, hard_cap: int = REFINABLE_HARD_CAP) -> RefinabilityReport:
    """Certify, for every subset A, an antichain B refining A with the same
    join: the maximal elements of A.  They always serve, since they form an
    antichain, each lies in A, and every member of A lies below one of
    them; the antichain and the join are still verified, never assumed.
    """
    n = h.size
    if n > hard_cap:
        raise CapExceeded(
            f"refinability check capped at {hard_cap} elements",
            cap="REFINABLE_HARD_CAP",
            limit=hard_cap,
            predicted=n,
        )
    leq = h.lattice.leq
    certs = []
    for smask in range(1 << n):
        subset = tuple(i for i in range(n) if smask >> i & 1)
        maximal = tuple(a for a in subset if not any(b != a and leq[a][b] for b in subset))
        if not _is_antichain(h, maximal) or h.join_all(maximal) != h.join_all(subset):
            return RefinabilityReport(False, tuple(certs), subset)
        certs.append((subset, maximal))
    return RefinabilityReport(True, tuple(certs), None)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def _strip_comments(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


class AlgebraFormatError(AlgebraError):
    pass


def parse_algebra_text(text: str) -> tuple[str, FiniteHeytingAlgebra]:
    """Parse the line-oriented algebra format; returns (ident, algebra)."""
    lines = _strip_comments(text)
    ident, alg, rest = _parse_algebra_block(lines)
    if rest:
        raise AlgebraFormatError(f"trailing content after algebra block: {rest[0]!r}")
    return ident, alg


def _parse_algebra_block(lines: list[str]) -> tuple[str, FiniteHeytingAlgebra, list[str]]:
    if not lines or not lines[0].startswith("algebra"):
        raise AlgebraFormatError("expected 'algebra <ident>'")
    parts = lines[0].split()
    if len(parts) != 2:
        raise AlgebraFormatError("expected 'algebra <ident>'")
    ident = parts[1]
    if len(lines) < 2 or not lines[1].startswith("size"):
        raise AlgebraFormatError("expected 'size <N>'")
    try:
        n = int(lines[1].split()[1])
    except (IndexError, ValueError) as exc:
        raise AlgebraFormatError("bad size line") from exc
    if len(lines) < 3 or lines[2] != "leq":
        raise AlgebraFormatError("expected 'leq'")
    rows = lines[3 : 3 + n]
    if len(rows) != n or any(len(r.replace(" ", "")) != n for r in rows):
        raise AlgebraFormatError(f"expected {n} matrix rows of {n} characters")
    matrix = []
    for r in rows:
        r = r.replace(" ", "")
        if any(c not in "01" for c in r):
            raise AlgebraFormatError(f"matrix row {r!r} must be 0/1")
        matrix.append([c == "1" for c in r])
    if len(lines) < 4 + n or lines[3 + n] != "end":
        raise AlgebraFormatError("expected 'end' after matrix")
    alg = derive_heyting(validate_lattice(matrix))
    return ident, alg, lines[4 + n :]


def format_algebra_text(ident: str, h: FiniteHeytingAlgebra) -> str:
    rows = [
        "".join("1" if v else "0" for v in row) for row in h.lattice.leq
    ]
    return "\n".join(
        [f"algebra {ident}", f"size {h.size}", "leq", *rows, "end", ""]
    )


def load_algebra(path: str) -> tuple[str, FiniteHeytingAlgebra]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra_text(fh.read())
