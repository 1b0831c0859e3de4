"""Bit-sliced lattice values and the ||u = v|| / ||u in v|| tables.

Birkhoff's representation theorem: every element e of a finite
distributive lattice is the down-set D(e) of the join-irreducibles j <= e.
Meet is intersection, join is union, and j <= (a -> b) holds iff every
join-irreducible j' <= j with j' <= a also has j' <= b.

A *vector* assigns one element to every name id.  It is stored as one
Python int per join-irreducible (a *plane*): bit i of plane k is set iff
j_k <= value(i).  Meets and joins of vectors are then plane-wise ``&`` and
``|``, and a meet or join over a set of names is one mask test per plane.
Bits outside the names a caller asks about carry no meaning; planes may be
negative (Python's infinite two's complement), so ``~`` needs no mask.  A
value that is the same for every name is kept as a plain element index.

``EqMemKernel`` fills the equality and membership tables row by row, on
first read.  With ENTRY_k[z] the mask of the names v with j_k <= v(z):

* MEMROW_k(x) = OR { ENTRY_k[z] : z a child name, j_k <= ||x = z|| }, the
  vector v -> ||x in v||;
* EQROW_k(u) = AND { MEMROW_k'(x) : (x, a) in u, j_k' <= j_k, j_k' <= a }
  & ~OR { ENTRY_k'[y] : j_k' <= j_k, y a child name, j_k' not <= ||y in u|| },
  the vector v -> ||u = v||.

The entry index ENTRY_k is brought up to date on read: the names made
since the last read are walked once, collecting one bitmap over their ids
(a bytearray) per (child, element) pair, and each bitmap, shifted to the
first new id, is ORed into the planes of its element once.  A store-wide
int is then built once per pair, not once per entry and plane.

A row needs only the rows of the children of its name, so the recursion
follows the (well-founded) child relation.  The name store is append-only:
a row is exact for every id below its coverage (the store size when it was
computed, or less where it reused an older child row that a reader's need
allowed), and is recomputed only when a reader needs a later id.  A scalar
||u in v|| is read from the column of v, which needs only the rows of v's
children, so reading a fresh witness name recomputes no older row.

Names u, v are *indiscernible* when ||u = v|| = top.  Then ||u = w|| =
||v = w|| by transitivity, and ||x in u|| = ||x in v||, ||u in w|| =
||v in w|| by the substitution lemmas of Heyting-valued models (Bell,
*Set Theory: Boolean-Valued Models and Independence Proofs*, ch. 1).
``EqMemKernel.classes`` splits a set of names into its classes, after
which every row of a name is its class's first name's row.
"""

from __future__ import annotations

import sys
from typing import Iterable, Sequence, Union

from .algebra import FiniteHeytingAlgebra, _birkhoff
from .names import NameStore

Vector = Union[int, tuple]  # an element (the same for every name) or planes


class Planes:
    """The Birkhoff representation of one finite Heyting algebra, and the
    lattice operations on vectors."""

    def __init__(self, alg: FiniteHeytingAlgebra):
        irr, down = _birkhoff(alg.lattice)
        self.alg = alg
        self.top = alg.top
        self.bottom = alg.bottom
        self.irreducibles = tuple(irr)
        self.width = len(irr)
        self._elem = {d: e for e, d in enumerate(down)}
        # bits[e]: the plane indices k with j_k <= e
        self.bits = tuple(tuple(k for k in range(self.width) if d >> k & 1) for d in down)
        self.const = tuple(tuple(-1 if d >> k & 1 else 0 for k in range(self.width)) for d in down)
        self.below = tuple(self.bits[j] for j in irr)

    def _planes(self, a: Vector) -> tuple:
        return self.const[a] if a.__class__ is int else a

    def meet(self, a: Vector, b: Vector) -> Vector:
        if a.__class__ is int:
            if b.__class__ is int:
                return self.alg.meet_(a, b)
            if a == self.top or a == self.bottom:
                return b if a == self.top else a
        elif b.__class__ is int and (b == self.top or b == self.bottom):
            return a if b == self.top else b
        return tuple(x & y for x, y in zip(self._planes(a), self._planes(b)))

    def join(self, a: Vector, b: Vector) -> Vector:
        if a.__class__ is int:
            if b.__class__ is int:
                return self.alg.join_(a, b)
            if a == self.top or a == self.bottom:
                return b if a == self.bottom else a
        elif b.__class__ is int and (b == self.top or b == self.bottom):
            return a if b == self.bottom else b
        return tuple(x | y for x, y in zip(self._planes(a), self._planes(b)))

    def imp(self, a: Vector, b: Vector) -> Vector:
        if a.__class__ is int and b.__class__ is int:
            return self.alg.imp_(a, b)
        return self.meet_below([~x | y for x, y in zip(self._planes(a), self._planes(b))])

    def meet_below(self, masks: list[int]) -> tuple:
        """The vector whose plane k is the AND of masks[k'] over j_k' <= j_k:
        down-closed at every id, whatever the masks."""
        out = []
        for below in self.below:
            acc = -1
            for k in below:
                acc &= masks[k]
            out.append(acc)
        return tuple(out)

    def decode(self, a: Vector, i: int) -> int:
        """The element at name id i."""
        if a.__class__ is int:
            return a
        d = 0
        for k, plane in enumerate(a):
            if plane >> i & 1:
                d |= 1 << k
        return self._elem[d]

    def meet_over(self, a: Vector, mask: int) -> int:
        """Meet of the values at the ids in mask (top when mask is empty)."""
        if a.__class__ is int:
            return a if mask else self.top
        d = 0
        for k, plane in enumerate(a):
            if plane & mask == mask:
                d |= 1 << k
        return self._elem[d]

    def join_over(self, a: Vector, mask: int) -> int:
        """Join of the values at the ids in mask (bottom when mask is empty)."""
        if a.__class__ is int:
            return a if mask else self.bottom
        d = 0
        for k, plane in enumerate(a):
            if plane & mask:
                d |= 1 << k
        return self._elem[d]

    def where(self, a: Vector, e: int) -> int:
        """Mask of the ids i with a(i) = e (every id when a is e itself)."""
        if a.__class__ is int:
            return -1 if a == e else 0
        ks = self.bits[e]
        out = -1
        for k, plane in enumerate(a):
            out &= plane if k in ks else ~plane
        return out

    def exceeds(self, a: Vector, b: Vector) -> int:
        """Mask of the ids i with a(i) not <= b(i)."""
        out = 0
        for x, y in zip(self._planes(a), self._planes(b)):
            out |= x & ~y
        return out

    def from_values(self, pairs: Iterable[tuple[int, int]]) -> tuple:
        """The vector holding element e at id i for each (i, e) pair and
        bottom elsewhere."""
        return self.from_masks((1 << i, e) for i, e in pairs)

    def from_masks(self, pairs: Iterable[tuple[int, int]]) -> tuple:
        """The vector holding element e at the ids in mask for each
        (mask, e) pair, the masks disjoint, and bottom elsewhere."""
        out = [0] * self.width
        for mask, e in pairs:
            for k in self.bits[e]:
                out[k] |= mask
        return tuple(out)


_ALWAYS = sys.maxsize  # coverage of a row that no later name can change

_BYTE_BITS = [tuple(i for i in range(8) if b >> i & 1) for b in range(256)]


def _bits(mask: int) -> list[int]:
    """The positions of the bits set in mask, lowest first, a byte at a time."""
    out: list[int] = []
    for k, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) // 8, "little")):
        if byte:
            out += map((8 * k).__add__, _BYTE_BITS[byte])
    return out


class EqMemKernel:
    """Lazily filled rows of ||u = v|| and ||u in v|| over one name store."""

    def __init__(self, planes: Planes, store: NameStore):
        self.planes = planes
        self.store = store
        self._entry: list[dict[int, int]] = [{} for _ in range(planes.width)]
        self._seen = 0  # names whose entries are in _entry
        self._child_bound = 0  # one more than the largest child name id
        # name id -> (planes, coverage): exact for every id below coverage
        self._eqrow: dict[int, tuple[tuple, int]] = {}
        self._memrow: dict[int, tuple[tuple, int]] = {}
        self._memcol: dict[int, tuple[tuple, int]] = {}
        self._rep: dict[int, int] = {}  # name id -> an indiscernible name whose rows it reads

    def _sync(self) -> int:
        """Add the entries of names created since the last call: one bitmap
        over the new ids per (child, element), ORed into that element's
        planes once."""
        n = len(self.store)
        seen = self._seen
        if seen == n:
            return n
        get = self.store.get
        size = (n - seen + 7) // 8
        maps: dict[tuple[int, int], bytearray] = {}
        for i in range(n - seen):
            byte, bit = i >> 3, 1 << (i & 7)
            for pair in get(seen + i).entries:
                bitmap = maps.get(pair)
                if bitmap is None:
                    bitmap = maps[pair] = bytearray(size)
                bitmap[byte] |= bit
        bits = self.planes.bits
        entry = self._entry
        for (z, a), bitmap in maps.items():
            ks = bits[a]
            if not ks:
                continue
            if z >= self._child_bound:
                self._child_bound = z + 1
            mask = int.from_bytes(bitmap, "little") << seen
            for k in ks:
                col = entry[k]
                col[z] = col.get(z, 0) | mask
        self._seen = n
        return n

    def entry(self, z: int) -> tuple:
        """The vector v -> v(z) (bottom where z is not a child of v)."""
        self._sync()
        return tuple(col.get(z, 0) for col in self._entry)

    def eqrow(self, u: int, need: int) -> tuple:
        """The vector v -> ||u = v||, exact at least for the ids below need."""
        u = self._rep.get(u, u)
        hit = self._eqrow.get(u)
        if hit is not None and hit[1] >= need:
            return hit[0]
        n = self._sync()
        width = self.planes.width
        bits = self.planes.bits
        inner = [-1] * width  # names v with j_k <= ||x in v|| for every x in u at weight >= j_k
        inside = [0] * width  # child names y with j_k <= ||y in u||
        cover = n
        for x, a in self.store.get(u).entries:
            ks = bits[a]
            if not ks:
                continue
            mrow = self.memrow(x, need)  # an older row that covers need serves
            cover = min(cover, self._memrow[self._rep.get(x, x)][1])
            erow = self.eqrow(x, self._child_bound)
            for k in ks:
                inner[k] &= mrow[k]
                inside[k] |= erow[k]
        outside = []  # names v with a child y, j_k <= v(y), j_k not <= ||y in u||
        for k in range(width):
            m = inside[k]
            acc = 0
            for y, containers in self._entry[k].items():
                if not m >> y & 1:
                    acc |= containers
            outside.append(acc)
        row = []
        for below in self.planes.below:
            keep, drop = -1, 0
            for k in below:
                keep &= inner[k]
                drop |= outside[k]
            row.append(keep & ~drop)
        out = tuple(row)
        self._eqrow[u] = (out, cover)
        return out

    def memrow(self, x: int, need: int) -> tuple:
        """The vector v -> ||x in v||, exact at least for the ids below need."""
        x = self._rep.get(x, x)
        hit = self._memrow.get(x)
        if hit is not None and hit[1] >= need:
            return hit[0]
        n = self._sync()
        erow = self.eqrow(x, self._child_bound)
        row = []
        for k, col in enumerate(self._entry):
            m = erow[k]
            acc = 0
            for z, containers in col.items():
                if m >> z & 1:
                    acc |= containers
            row.append(acc)
        out = tuple(row)
        self._memrow[x] = (out, n)
        return out

    def memcol(self, w: int, need: int) -> tuple:
        """The vector y -> ||y in w||, exact at least for the ids below need."""
        w = self._rep.get(w, w)
        hit = self._memcol.get(w)
        if hit is not None and hit[1] >= need:
            return hit[0]
        bits = self.planes.bits
        col = [0] * self.planes.width
        cover = _ALWAYS
        for c, a in self.store.get(w).entries:
            ks = bits[a]
            if not ks:
                continue
            erow = self.eqrow(c, need)
            cover = min(cover, self._eqrow[self._rep.get(c, c)][1])
            for k in ks:
                col[k] |= erow[k]
        out = tuple(col)
        self._memcol[w] = (out, cover)
        return out

    def classes(self, ids: Sequence[int]) -> list[int]:
        """The first name of each class of indiscernible names among ids,
        in the order of ids; from then on every row of a name in ids is its
        class's first name's row.

        The domain of every name in ids lies in C, the children of them
        all, so u and v are indiscernible iff ||x in u|| = ||x in v|| for
        every x in C: if the columns agree, u(x) <= ||x in u|| = ||x in v||
        on dom(u), and symmetrically, so ||u = v|| = top; the converse is
        the substitution lemma.  The planes of the member rows of C split
        the ids into their classes."""
        mask = 0
        for i in ids:
            mask |= 1 << i
        need = mask.bit_length()
        parts = [mask] if mask else []
        for x in sorted({c for i in ids for c, _ in self.store.get(i).entries}):
            for plane in self.memrow(x, need):
                parts = [q for part in parts for q in (part & plane, part & ~plane) if q]
        order = {i: k for k, i in reversed(list(enumerate(ids)))}
        reps = []
        for part in parts:
            members = _bits(part)
            first = min(members, key=order.__getitem__)
            reps.append(first)
            self._rep.update(dict.fromkeys(members, first))
        return sorted(reps, key=order.__getitem__)

    def rep(self, u: int) -> int:
        """The name whose rows u reads: its class's first name once
        ``classes`` has split names that hold u, else u."""
        return self._rep.get(u, u)

    def eq(self, u: int, v: int) -> int:
        """||u = v||, read from the row of the later name, which always
        covers the earlier one."""
        if u > v:
            u, v = v, u
        return self.planes.decode(self.eqrow(v, v + 1), u)

    def mem(self, u: int, v: int) -> int:
        """||u in v||, read from the column of v: built from v's entries
        alone, so a witness name made after every row is cheap to read."""
        self.store.get(u)  # rejects an unknown u; memcol rejects an unknown v
        return self.planes.decode(self.memcol(v, u + 1), u)
