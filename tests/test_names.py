import itertools
import random

import pytest
from reference import Reference, product_universe

from pst.algebra import boolean_algebra, chain
from pst.errors import CapExceeded
from pst.names import (
    HF_EMPTY,
    DomainsRestricted,
    DuplicateChild,
    Full,
    NameStore,
    Sampled,
    UniverseError,
    UnknownChild,
    _full_level,
    all_hf_sets,
    enumerate_universe,
    hat_embed,
    hf,
    hf_to_text,
    mixture,
    parse_hf,
)
from pst.kernel import EqMemKernel
from pst.valuation import EvalContext, make_model


def oracle_universe(m: int, rank: int) -> set:
    """Independent brute-force oracle: names as nested frozensets of
    (child, element) pairs, built level by level without any interning."""
    if rank <= 0:
        return set()
    level = {frozenset()}
    total = set(level)
    for _ in range(rank - 1):
        base = sorted(total, key=repr)
        fresh = set()
        for choice in itertools.product(range(m + 1), repeat=len(base)):
            fresh.add(
                frozenset(
                    (child, e - 1) for child, e in zip(base, choice) if e > 0
                )
            )
        total |= fresh
    return total


def test_universe_counts_match_oracle_two_element():
    for rank in (0, 1, 2, 3):
        store = NameStore()
        got = enumerate_universe(store, chain(2), rank)
        assert len(got) == len(oracle_universe(2, rank))
    # frozen values for the record
    assert len(oracle_universe(2, 1)) == 1
    assert len(oracle_universe(2, 2)) == 3
    assert len(oracle_universe(2, 3)) == 27


def test_universe_counts_other_algebras():
    assert len(enumerate_universe(NameStore(), chain(1), 2)) == len(oracle_universe(1, 2)) == 2
    assert len(enumerate_universe(NameStore(), chain(3), 2)) == len(oracle_universe(3, 2)) == 4
    assert len(enumerate_universe(NameStore(), chain(3), 3)) == len(oracle_universe(3, 3)) == 256


def test_universe_rank_zero_empty():
    assert enumerate_universe(NameStore(), chain(2), 0) == []


def test_universe_structure_matches_oracle():
    """Shape-level comparison, not just counts: each enumerated name maps to
    a distinct oracle element."""
    store = NameStore()
    ids = enumerate_universe(store, chain(2), 3)

    def shape(nid):
        return frozenset((shape(c), e) for c, e in store.get(nid).entries)

    shapes = {shape(nid) for nid in ids}
    assert shapes == oracle_universe(2, 3)


def test_ranks_derived_correctly():
    store = NameStore()
    e = store.empty_name()
    assert store.get(e).rank == 1
    s1 = store.mk_name([(e, 0)])
    assert store.get(s1).rank == 2
    s2 = store.mk_name([(e, 1), (s1, 0)])
    assert store.get(s2).rank == 3


def test_interning_is_canonical():
    store = NameStore()
    e = store.empty_name()
    a = store.mk_name([(e, 1)])
    left = store.mk_name([(e, 0), (a, 1)])
    right = store.mk_name([(a, 1), (e, 0)])
    assert left == right
    assert store.mk_name(()) == e
    # structural equality of entry lists iff id equality
    assert store.mk_name([(e, 1)]) == a


def test_mk_name_errors():
    store = NameStore()
    e = store.empty_name()
    with pytest.raises(UnknownChild):
        store.mk_name([(99, 1)])
    with pytest.raises(DuplicateChild):
        store.mk_name([(e, 0), (e, 1)])


def test_enumerate_caps_and_policies():
    store = NameStore()
    with pytest.raises(CapExceeded):
        enumerate_universe(store, chain(2), 4, Full(cap=100))
    with pytest.raises(CapExceeded):
        enumerate_universe(store, chain(2), 5)
    sampled = enumerate_universe(NameStore(), chain(2), 4, Sampled(seed=7, count=5))
    again = enumerate_universe(NameStore(), chain(2), 4, Sampled(seed=7, count=5))
    assert sampled == again
    store_r = NameStore()
    restricted = enumerate_universe(store_r, chain(2), 3, DomainsRestricted(max_dom=1))
    assert all(len(store_r.get(nid).entries) <= 1 for nid in restricted)
    assert len(restricted) <= 27


@pytest.mark.parametrize("alg", [chain(1), chain(2), chain(3), chain(4), chain(5), boolean_algebra(2)], ids=["c1", "c2", "c3", "c4", "c5", "b4"])
def test_universe_ids_entries_and_ranks_match_the_product_builder(alg):
    """The levels built as canonical tuples give every name the id, entry
    tuple and rank that mk_name over itertools.product gave it, and both
    intern into one table."""
    for rank in (0, 1, 2, 3):
        store, ref = NameStore(), NameStore()
        ids = enumerate_universe(store, alg, rank)
        assert ids == product_universe(ref, alg, rank)
        assert [(n.nid, n.entries, n.rank) for n in store] == [(n.nid, n.entries, n.rank) for n in ref]
        assert all(store.mk_name(store.get(i).entries) == i for i in ids)
        assert len(store) == len(ref)


def test_full_level_ranks_names_over_a_base_whose_ranks_fall_with_the_id():
    """A store that already holds names may give a lower-rank name a later
    id; each level name still has the rank and id mk_name gives it."""
    store = NameStore()
    e = store.empty_name()
    deep = store.mk_name([(store.mk_name([(e, 0)]), 0)])  # rank 3
    shallow = store.mk_name([(e, 1)])  # rank 2, a later id
    base = sorted([e, deep - 1, deep, shallow])
    ids = _full_level(store, base, 2)
    assert len(ids) == 3 ** len(base)
    for nid in ids:
        n = store.get(nid)
        assert n.rank == 1 + max((store.get(c).rank for c, _ in n.entries), default=0)
        assert store.mk_name(reversed(n.entries)) == nid


def test_negative_policy_bounds_fail_loudly():
    for policy, text in ((DomainsRestricted(max_dom=-1), "max_dom"), (Sampled(seed=1, count=-1), "count")):
        for rank in (0, 1, 3):
            with pytest.raises(UniverseError, match=text):
                enumerate_universe(NameStore(), chain(2), rank, policy)
    assert len(enumerate_universe(NameStore(), chain(2), 3, DomainsRestricted(max_dom=0))) == 1
    assert len(enumerate_universe(NameStore(), chain(2), 3, Sampled(seed=1, count=0))) == 1


def _entry_oracle(kernel, z):
    """The vector v -> v(z), one entry at a time."""
    return kernel.planes.from_values((n.nid, e) for n in kernel.store for c, e in n.entries if c == z)


@pytest.mark.parametrize("alg, rank", [(chain(2), 3), (boolean_algebra(2), 2), (chain(4), 2)], ids=["c2r3", "b4r2", "c4r2"])
def test_entry_index_matches_the_entries_after_every_sync(alg, rank):
    """The entry index is exact after a whole-universe sync and after syncs
    of names appended at ids that are not byte aligned: one at a time, a
    batch across a byte boundary, then one name over every name."""
    model = make_model(alg, NameStore(), rank)
    store, scope = model.store, model.scope
    assert len(store) % 8
    kernel = EqMemKernel(alg.planes, store)
    ref = Reference(model)
    rng = random.Random(11)

    def fresh():
        """A new name: it holds the last name made, which no older name can."""
        last = len(store) - 1
        picks = {rng.randrange(last): rng.randrange(alg.size) for _ in range(rng.randrange(3))}
        nid = store.mk_name([*picks.items(), (last, rng.randrange(alg.size))])
        assert nid == last + 1
        return nid

    def check(made):
        for z in range(len(store)):
            assert kernel.entry(z) == _entry_oracle(kernel, z), z
        for w in made:
            for u in [*scope, *made]:
                assert kernel.eq(u, w) == ref.eq(u, w), (u, w)
                assert kernel.mem(u, w) == ref.mem(u, w), (u, w)
                assert kernel.mem(w, u) == ref.mem(w, u), (u, w)

    check([])
    made: list[int] = []
    for _ in range(2):
        made.append(fresh())
        assert made[-1] % 8
        check(made)
    batch = [fresh() for _ in range(13)]
    assert batch[0] % 8
    made += batch
    check(made)
    made.append(store.mk_name((c, rng.randrange(alg.size)) for c in range(len(store))))
    check(made)


def test_ids_stay_stable_after_appends():
    store = NameStore()
    ids = enumerate_universe(store, chain(2), 2)
    before = [store.get(nid) for nid in ids]
    extra = store.mk_name([(ids[-1], 1)])  # rank 3: a new name
    assert store.get(extra).nid == extra == len(before)
    assert [store.get(nid) for nid in ids] == before  # ids remain stable


# --- hereditarily finite sets -----------------------------------------------------


def test_parse_and_print_hf():
    s = parse_hf("{{},{{}}}")
    assert s == hf(HF_EMPTY, hf(HF_EMPTY))
    assert hf_to_text(s) == "{{},{{}}}"
    assert parse_hf("{}") == HF_EMPTY
    assert parse_hf(" { { } , { { } } } ") == s


def test_parse_hf_rejects_garbage():
    from pst.names import HFSyntaxError

    for bad in ("", "{", "{}}", "{,}", "{{}{}}"):
        with pytest.raises(HFSyntaxError):
            parse_hf(bad)


def test_hf_extensionality():
    assert hf(HF_EMPTY, HF_EMPTY) == hf(HF_EMPTY)


def test_all_hf_sets_counts():
    assert len(all_hf_sets(0)) == 1
    assert len(all_hf_sets(1)) == 2
    assert len(all_hf_sets(2)) == 4
    assert len(all_hf_sets(3)) == 16
    ranks = [s.rank() for s in all_hf_sets(3)]
    assert ranks == sorted(ranks)


def test_hat_embed_examples():
    store = NameStore()
    alg = chain(2)
    assert hat_embed(HF_EMPTY, store, alg) == store.empty_name()
    one = hat_embed(hf(HF_EMPTY), store, alg)
    assert store.get(one).entries == ((store.empty_name(), 1),)
    two = hat_embed(hf(HF_EMPTY, hf(HF_EMPTY)), store, alg)
    assert store.get(two).entries == ((store.empty_name(), 1), (one, 1))


def test_hat_embed_injective_rank3():
    store = NameStore()
    ids = [hat_embed(s, store, chain(3)) for s in all_hf_sets(3)]
    assert len(set(ids)) == len(ids)


# --- mixtures ------------------------------------------------------------------------


def _mem_fn(model):
    ctx = EvalContext(model)
    return ctx, lambda x, u: ctx.eval_mem(x, u)


def test_mixture_single_top_part_is_equal():
    alg = chain(3)
    store = NameStore()
    model = make_model(alg, store, 2, mode="heyting")
    ctx, mem = _mem_fn(model)
    for u in model.scope:
        mix = mixture([(alg.top, u)], store, alg, mem)
        assert ctx.eval_eq(u, mix) == alg.top


def test_mixture_bottom_weights_annihilate():
    alg = chain(2)
    store = NameStore()
    model = make_model(alg, store, 2)
    ctx, mem = _mem_fn(model)
    e = store.empty_name()
    u1 = store.mk_name([(e, 1)])
    mix = mixture([(alg.bottom, u1)], store, alg, mem)
    assert all(val == alg.bottom for _, val in store.get(mix).entries)


def test_mixture_idempotent_on_equal_parts():
    alg = chain(2)
    store = NameStore()
    model = make_model(alg, store, 2)
    ctx, mem = _mem_fn(model)
    u = store.mk_name([(store.empty_name(), 1)])
    mix = mixture([(alg.top, u), (alg.top, u)], store, alg, mem)
    assert ctx.eval_eq(u, mix) == alg.top


def test_mixing_lemma_exhaustive_small_scope():
    """Weights below the pairwise equality degree embed each part into the
    blend: checked for every qualifying family of <= 3 parts over rank <= 2
    names and algebras of <= 3 elements."""
    from pst.algebra import enumerate_heyting

    for alg in enumerate_heyting(3):
        store = NameStore()
        model = make_model(alg, store, 2, mode="heyting")
        ctx, mem = _mem_fn(model)
        names = list(model.scope)
        pairs = [(a, u) for a in range(alg.size) for u in names]
        for k in (1, 2, 3):
            for parts in itertools.product(pairs, repeat=k):
                compatible = all(
                    alg.le(alg.meet_(a1, a2), ctx.eval_eq(u1, u2))
                    for (a1, u1), (a2, u2) in itertools.combinations(parts, 2)
                )
                if not compatible:
                    continue
                mix = mixture(list(parts), store, alg, mem)
                for a, u in parts:
                    assert alg.le(a, ctx.eval_eq(u, mix))
