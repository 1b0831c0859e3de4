"""Bounded-rank name universes with canonical interning.

A name is a function from lower-rank names to algebra elements; the value
u(x) is the membership degree of x in u.  Names are interned: structurally
equal entry lists share one id, so evaluation can memoise on id pairs.

Rank convention: the universe at rank 0 is empty and the empty-domain name
is the sole inhabitant of rank 1; the rank of any other name is one more
than the largest child rank.

``mk_name`` validates, sorts and ranks an entry list before interning it.
A level of the full universe skips that: ``_full_level`` grows its entry
tuples child by child over the sorted base, so each lists known, distinct
children in ascending order (canonical as built) and carries the largest
rank of its children.  Both paths intern into the one table, so a later
``mk_name`` of a universe name's entries returns its id.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .algebra import FiniteHeytingAlgebra
from .errors import CapExceeded, PstError
from .syntax import MAX_FORMULA_DEPTH

RANK_HARD_CAP = 4
ENUM_DEFAULT_CAP = 200_000


class UniverseError(PstError):
    pass


class UnknownChild(UniverseError):
    def __init__(self, child: int):
        super().__init__(f"child name #{child} not in store")
        self.child = child


class DuplicateChild(UniverseError):
    def __init__(self, child: int):
        super().__init__(f"child #{child} listed twice; a name is a function")
        self.child = child


@dataclass(frozen=True)
class Name:
    nid: int
    entries: tuple[tuple[int, int], ...]  # (child id, element), sorted by child
    rank: int


class NameStore:
    """Interning table for names.  Append-only: ids never change, so a
    store may keep growing (witness construction) after enumeration."""

    def __init__(self) -> None:
        self._names: list[Name] = []
        self._ids: dict[tuple[tuple[int, int], ...], int] = {}

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self):
        return iter(self._names)

    def get(self, nid: int) -> Name:
        if nid < 0 or nid >= len(self._names):
            raise UnknownChild(nid)
        return self._names[nid]

    def mk_name(self, entries: Iterable[tuple[int, int]]) -> int:
        """Intern an entry list; permutations of the same entries yield the
        same id."""
        seen: dict[int, int] = {}
        for child, elem in entries:
            if child < 0 or child >= len(self._names):
                raise UnknownChild(child)
            if child in seen and seen[child] != elem:
                raise DuplicateChild(child)
            seen[child] = elem
        canon = tuple(sorted(seen.items()))
        names = self._names
        return self._intern(canon, 1 + max((names[c].rank for c, _ in canon), default=0))

    def _intern(self, canon: tuple[tuple[int, int], ...], rank: int) -> int:
        """The id of a canonical entry tuple (children known and distinct,
        sorted by child) of the given rank, made if it is new."""
        existing = self._ids.get(canon)
        if existing is not None:
            return existing
        nid = len(self._names)
        self._names.append(Name(nid, canon, rank))
        self._ids[canon] = nid
        return nid

    def empty_name(self) -> int:
        return self.mk_name(())

    def dump(self) -> str:
        lines = []
        for n in self._names:
            body = ", ".join(f"{c}:{e}" for c, e in n.entries)
            lines.append(f"name {n.nid} rank {n.rank} = {{ {body} }}")
        return "\n".join(lines)


# --- enumeration policies ----------------------------------------------------


@dataclass(frozen=True)
class Full:
    cap: int = ENUM_DEFAULT_CAP


@dataclass(frozen=True)
class Sampled:
    seed: int
    count: int


@dataclass(frozen=True)
class DomainsRestricted:
    max_dom: int


Policy = Full | Sampled | DomainsRestricted


def enumerate_universe(
    store: NameStore,
    algebra: FiniteHeytingAlgebra,
    rank_bound: int,
    policy: Policy = Full(),
) -> list[int]:
    """All (or sampled) names of rank <= rank_bound, deterministically.

    With the full policy the predicted level size (m+1)^|previous level|
    must stay under the cap; otherwise a sampling or domain-restricted
    policy is required.
    """
    if rank_bound > RANK_HARD_CAP:
        raise CapExceeded(
            f"rank bound capped at {RANK_HARD_CAP}",
            cap="RANK_HARD_CAP",
            limit=RANK_HARD_CAP,
            predicted=rank_bound,
        )
    if rank_bound < 0:
        raise UniverseError(f"rank bound must be at least 0, got {rank_bound}")
    if isinstance(policy, DomainsRestricted) and policy.max_dom < 0:
        raise UniverseError(f"max_dom must be at least 0, got {policy.max_dom}")
    if isinstance(policy, Sampled) and policy.count < 0:
        raise UniverseError(f"sample count must be at least 0, got {policy.count}")
    if rank_bound == 0:
        return []
    m = algebra.size
    level: list[int] = [store.empty_name()]
    out = list(level)
    rng = random.Random(policy.seed) if isinstance(policy, Sampled) else None
    for _ in range(2, rank_bound + 1):
        base = sorted(out)
        if isinstance(policy, Full):
            predicted = (m + 1) ** len(base)
            if predicted > policy.cap:
                raise CapExceeded(
                    f"full enumeration would build {predicted} names; "
                    "use Sampled or DomainsRestricted",
                    cap="Full.cap",
                    limit=policy.cap,
                    predicted=predicted,
                )
            fresh = _full_level(store, base, m)
        elif isinstance(policy, DomainsRestricted):
            fresh = _restricted_level(store, base, m, policy.max_dom)
        else:
            assert rng is not None
            fresh = _sampled_level(store, base, m, rng, policy.count)
        out = sorted(set(out) | set(fresh))
    return out


def _full_level(store: NameStore, base: Sequence[int], m: int) -> list[int]:
    """Every function from the base to the m elements or "absent", in
    ``itertools.product`` order (the last child varying fastest), each
    interned as built with the rank it carried (see the module docstring)."""
    level: list[tuple[tuple[tuple[int, int], ...], int]] = [((), 0)]
    for child in base:
        rank = store.get(child).rank
        pairs = [((child, elem),) for elem in range(m)]
        grown = []
        for entries, top in level:
            grown.append((entries, top))
            top = max(top, rank)
            grown += [(entries + pair, top) for pair in pairs]
        level = grown
    intern = store._intern
    return [intern(entries, top + 1) for entries, top in level]


def _restricted_level(store: NameStore, base: Sequence[int], m: int, max_dom: int) -> list[int]:
    out = []
    for size in range(0, min(max_dom, len(base)) + 1):
        for dom in itertools.combinations(base, size):
            for vals in itertools.product(range(m), repeat=size):
                out.append(store.mk_name(list(zip(dom, vals))))
    return out


def _sampled_level(store: NameStore, base: Sequence[int], m: int, rng: random.Random, count: int) -> list[int]:
    out = [store.empty_name()]
    for _ in range(count):
        dom = [c for c in base if rng.random() < 0.5]
        entries = [(c, rng.randrange(m)) for c in dom]
        out.append(store.mk_name(entries))
    return out


# --- hereditarily finite sets and the hat embedding ---------------------------


@dataclass(frozen=True)
class HFSet:
    """A hereditarily finite set; extensional by construction."""

    elems: frozenset["HFSet"]

    def __contains__(self, other: "HFSet") -> bool:
        return other in self.elems

    def rank(self) -> int:
        return 1 + max((e.rank() for e in self.elems), default=-1)


HF_EMPTY = HFSet(frozenset())


def hf(*elems: HFSet) -> HFSet:
    return HFSet(frozenset(elems))


def hf_to_text(s: HFSet) -> str:
    inner = sorted(((e.rank(), hf_to_text(e)) for e in s.elems))
    return "{" + ",".join(t for _, t in inner) + "}"


class HFSyntaxError(UniverseError):
    pass


def parse_hf(text: str) -> HFSet:
    """Parse a braces term like ``{{},{{}}}``, nested at most
    ``MAX_FORMULA_DEPTH`` levels deep (parsing and embedding recurse per level)."""
    stripped = "".join(text.split())
    pos = 0

    def parse(depth: int) -> HFSet:
        nonlocal pos
        if pos >= len(stripped) or stripped[pos] != "{":
            raise HFSyntaxError(f"expected '{{' at {pos}")
        if depth > MAX_FORMULA_DEPTH:
            raise HFSyntaxError(f"at {pos}: set nests deeper than {MAX_FORMULA_DEPTH} levels")
        pos += 1
        elems = []
        if pos < len(stripped) and stripped[pos] == "}":
            pos += 1
            return HFSet(frozenset())
        while True:
            elems.append(parse(depth + 1))
            if pos >= len(stripped):
                raise HFSyntaxError("unexpected end of input")
            if stripped[pos] == ",":
                pos += 1
                continue
            if stripped[pos] == "}":
                pos += 1
                return HFSet(frozenset(elems))
            raise HFSyntaxError(f"expected ',' or '}}' at {pos}")

    out = parse(1)
    if pos != len(stripped):
        raise HFSyntaxError(f"trailing input at {pos}")
    return out


def all_hf_sets(max_rank: int) -> list[HFSet]:
    """All hereditarily finite sets of rank <= max_rank, deterministic order."""
    levels: list[HFSet] = [HF_EMPTY]
    if max_rank < 0:
        return []
    for _ in range(max_rank):
        fresh = [
            HFSet(frozenset(c))
            for r in range(len(levels) + 1)
            for c in itertools.combinations(levels, r)
        ]
        known = set(levels)
        for s in fresh:
            if s not in known:
                levels.append(s)
                known.add(s)
    return sorted(levels, key=lambda s: (s.rank(), hf_to_text(s)))


def hat_embed(s: HFSet, store: NameStore, algebra: FiniteHeytingAlgebra) -> int:
    """The check name of s: every member embeds with membership degree top."""
    entries = [(hat_embed(e, store, algebra), algebra.top) for e in s.elems]
    return store.mk_name(entries)


# --- mixtures ------------------------------------------------------------------


def mixture(
    parts: Sequence[tuple[int, int]],
    store: NameStore,
    algebra: FiniteHeytingAlgebra,
    mem_eval: Callable[[int, int], int],
) -> int:
    """Blend names u_i with weights a_i: the domain is the union of the
    part domains and u(x) = join_i (a_i ^ ||x in u_i||).

    ``mem_eval(x, u)`` must compute the membership truth value; it is
    injected to keep this module independent of the evaluation engine.
    """
    if not parts:
        raise UniverseError("mixture needs at least one part")
    dom = sorted({c for _, u in parts for c, _ in store.get(u).entries})
    entries = []
    for x in dom:
        val = algebra.join_all(
            algebra.meet_(a, mem_eval(x, u)) for a, u in parts
        )
        entries.append((x, val))
    return store.mk_name(entries)
