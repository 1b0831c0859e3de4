import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pst.algebra import (
    CapExceeded,
    FiniteLattice,
    NoJoin,
    NotAPoset,
    NotDistributive,
    RefinabilityReport,
    _birkhoff,
    boolean_algebra,
    canonical_key,
    chain,
    check_refinable,
    derive_heyting,
    enumerate_heyting,
    format_algebra_text,
    is_boolean,
    parse_algebra_text,
    validate_lattice,
)
from pst.kernel import Planes
from reference import enumerated_heyting, reference_birkhoff, reference_derive_heyting, reference_validate_lattice


def brute_imp(lat, x, y):
    """Independent oracle: scan for the unique maximum of {z : x^z <= y}."""
    cands = [z for z in range(lat.size) if lat.leq[lat.meet[x][z]][y]]
    best = [z for z in cands if all(lat.leq[w][z] for w in cands)]
    assert len(best) == 1
    return best[0]


def test_two_element_chain_forced():
    lat = validate_lattice([[1, 1], [0, 1]])
    assert lat.top == 1 and lat.bottom == 0
    assert lat.meet[0][1] == 0 and lat.join[0][1] == 1
    h = derive_heyting(lat)
    # classical material implication table
    assert h.imp == ((1, 1), (0, 1))


def test_three_chain_tables():
    h = chain(3)
    for x in range(3):
        for y in range(3):
            assert h.meet_(x, y) == min(x, y)
            assert h.join_(x, y) == max(x, y)
    # frozen from the brute-force max{z : x^z <= y} oracle
    assert h.imp_(1, 0) == 0
    assert h.imp_(2, 1) == 1
    assert all(h.imp_(0, y) == 2 for y in range(3))
    for x in range(3):
        for y in range(3):
            assert h.imp_(x, y) == brute_imp(h.lattice, x, y)
            if h.le(x, y):
                assert h.imp_(x, y) == h.top


def test_poset_with_two_maximal_elements_has_no_join():
    # bottom 0 < 1 < {2, 3}: all meets exist, the maximal pair has no join
    leq = [
        [1, 1, 1, 1],
        [0, 1, 1, 1],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    with pytest.raises(NoJoin) as exc:
        validate_lattice(leq)
    assert exc.value.pair == (2, 3)


def test_not_a_poset_diagnostics():
    with pytest.raises(NotAPoset) as exc:
        validate_lattice([[0, 1], [0, 1]])
    assert exc.value.why == "reflexivity"
    with pytest.raises(NotAPoset) as exc:
        validate_lattice([[1, 1], [1, 1]])
    assert exc.value.why == "antisymmetry"


def _outcome(validate, leq):
    """The lattice, or the type and args of the exception raised."""
    try:
        return validate(leq)
    except Exception as exc:
        return type(exc), exc.args


def test_validate_lattice_matches_the_loops_on_every_small_matrix():
    kinds = set()
    for n in range(4):
        for bits in range(1 << (n * n)):
            leq = [[bits >> (i * n + j) & 1 for j in range(n)] for i in range(n)]
            want = _outcome(reference_validate_lattice, leq)
            assert _outcome(validate_lattice, leq) == want, leq
            if isinstance(want, tuple):
                kind, (message,) = want
                kinds.add(message.split("(")[1].split()[0] if kind is NotAPoset else kind.__name__)
    # every check is reached: shape, the three order laws, a missing meet and join
    assert kinds == {"shape", "reflexivity", "antisymmetry", "transitivity", "NoMeet", "NoJoin"}


def test_validate_lattice_matches_the_loops_on_enumerated_algebras():
    for alg in enumerate_heyting(7):
        assert validate_lattice(alg.lattice.leq) == reference_validate_lattice(alg.lattice.leq) == alg.lattice


@st.composite
def order_matrices(draw):
    """A random order on 4-6 elements, bounded or not, transitively closed
    or not, with a few entries flipped and the elements permuted: mostly
    reflexive, so that the meet and join checks are reached as well as the
    order laws."""
    n = draw(st.integers(4, 6))
    leq = [[i == j or (i < j and draw(st.booleans())) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            leq[0][i] = leq[i][n - 1] = True
    if draw(st.booleans()):
        for k, i, j in itertools.product(range(n), repeat=3):
            leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(cell, max_size=2)):
        leq[i][j] = not leq[i][j]
    perm = draw(st.permutations(range(n)))
    return [[leq[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@given(order_matrices())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_validate_lattice_matches_the_loops_on_drawn_orders(leq):
    assert _outcome(validate_lattice, leq) == _outcome(reference_validate_lattice, leq)


def test_derive_heyting_matches_the_loops_on_enumerated_algebras():
    for alg in enumerate_heyting(7):
        assert derive_heyting(alg.lattice) == reference_derive_heyting(alg.lattice) == alg


_M3 = [[1, 1, 1, 1, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]
# 0 < 1 < 2 < 4 and 0 < 3 < 4, 3 incomparable with 1 and 2
_N5 = [[1, 1, 1, 1, 1], [0, 1, 1, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]


@pytest.mark.parametrize("leq", [_M3, _N5], ids=["M3", "N5"])
def test_derive_heyting_names_the_first_undistributed_triple(leq):
    lat = validate_lattice(leq)
    want = _outcome(reference_derive_heyting, lat)
    assert want[0] is NotDistributive
    assert _outcome(derive_heyting, lat) == want


@st.composite
def lattice_orders(draw):
    """A bounded, transitively closed order on 4-7 elements, permuted: a
    lattice when ``validate_lattice`` accepts it, distributive or not."""
    n = draw(st.integers(4, 7))
    leq = [[i == j or i == 0 or j == n - 1 or (i < j and draw(st.booleans())) for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    perm = draw(st.permutations(range(n)))
    return [[leq[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@given(lattice_orders())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_derive_heyting_matches_the_loops_on_drawn_lattices(leq):
    lat = _outcome(validate_lattice, leq)
    assume(isinstance(lat, FiniteLattice))
    assert _outcome(derive_heyting, lat) == _outcome(reference_derive_heyting, lat)


@given(lattice_orders())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_birkhoff_matches_the_join_search_on_drawn_lattices(leq):
    lat = _outcome(validate_lattice, leq)
    assume(isinstance(lat, FiniteLattice))
    assert _birkhoff(lat) == reference_birkhoff(lat)


def test_named_algebras_match_the_loops():
    """The chains and Boolean algebras, built from their down-set codes,
    are the algebras the loops derive from their order matrices."""
    for n in range(1, 8):
        assert chain(n) == reference_derive_heyting(reference_validate_lattice([[i <= j for j in range(n)] for i in range(n)]))
    for k in range(4):
        size = 1 << k
        leq = [[i & j == i for j in range(size)] for i in range(size)]
        assert boolean_algebra(k) == reference_derive_heyting(reference_validate_lattice(leq))


_TABLED = [*enumerate_heyting(7), *(chain(n) for n in range(1, 8)), *(boolean_algebra(k) for k in range(4))]


@pytest.mark.parametrize("alg", _TABLED, ids=lambda alg: f"size{alg.size}")
def test_planes_agree_with_the_tables(alg):
    """Planes reads the irreducibles and codes of the join search, and every
    vector operation agrees, id by id over 64 ids, with the tables."""
    irr, codes = reference_birkhoff(alg.lattice)
    assert _birkhoff(alg.lattice) == (irr, codes)
    p = Planes(alg)
    assert p.irreducibles == tuple(irr)
    assert p.bits == tuple(tuple(k for k in range(len(irr)) if c >> k & 1) for c in codes)
    ids = range(64)
    every = (1 << 64) - 1
    rng = random.Random(alg.size * 1000 + len(irr))
    values = [[rng.randrange(alg.size) for _ in ids] for _ in range(3)]
    values += [[e] * 64 for e in (alg.top, alg.bottom, rng.randrange(alg.size))]
    vectors = [p.from_values(enumerate(vs)) for vs in values[:3]] + [vs[0] for vs in values[3:]]
    masks = [0, 1, every, *(rng.getrandbits(64) for _ in range(3))]
    for a, va in zip(values, vectors):
        assert [p.decode(va, i) for i in ids] == a
        for mask in masks:
            chosen = [a[i] for i in ids if mask >> i & 1]
            assert p.meet_over(va, mask) == alg.meet_all(chosen)
            assert p.join_over(va, mask) == alg.join_all(chosen)
        for e in alg.elements():
            assert p.where(va, e) & every == sum(1 << i for i in ids if a[i] == e)
        for b, vb in zip(values, vectors):
            for op, table in ((p.meet, alg.meet_), (p.join, alg.join_), (p.imp, alg.imp_)):
                out = op(va, vb)
                assert [p.decode(out, i) for i in ids] == [table(x, y) for x, y in zip(a, b)]
            assert p.exceeds(va, vb) & every == sum(1 << i for i in ids if not alg.le(a[i], b[i]))


def test_diamond_m3_not_distributive():
    # bottom 0, atoms 1,2,3 pairwise incomparable, top 4
    leq = [
        [1, 1, 1, 1, 1],
        [0, 1, 0, 0, 1],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 0, 1],
    ]
    lat = validate_lattice(leq)
    with pytest.raises(NotDistributive) as exc:
        derive_heyting(lat)
    x, y, z = exc.value.triple
    assert lat.meet[x][lat.join[y][z]] != lat.join[lat.meet[x][y]][lat.meet[x][z]]


def test_is_boolean():
    assert is_boolean(chain(2))
    assert not is_boolean(chain(3))  # 1 v (1 -> 0) = 1 v 0 = 1? no: = 1, mid fails
    assert is_boolean(boolean_algebra(2))
    assert chain(3).boolean_flag is False
    assert boolean_algebra(2).boolean_flag is True


# --- enumeration -------------------------------------------------------------


def oracle_enumerate(max_size):
    """Independent path: all order relations refining the integer order,
    filtered to distributive lattices, deduped by min-over-permutations."""
    seen = set()
    for n in range(1, max_size + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(1 << len(pairs)):
            leq = [[i == j for j in range(n)] for i in range(n)]
            for idx, (i, j) in enumerate(pairs):
                if bits >> idx & 1:
                    leq[i][j] = True
            ok = all(
                not (leq[i][j] and leq[j][k]) or leq[i][k]
                for i in range(n)
                for j in range(n)
                for k in range(n)
            )
            if not ok:
                continue
            try:
                lat = validate_lattice(leq)
                derive_heyting(lat)
            except Exception:
                continue
            best = min(
                tuple(leq[p[a]][p[b]] for a in range(n) for b in range(n))
                for p in itertools.permutations(range(n))
            )
            seen.add((n, best))
    return seen


def test_enumeration_counts_match_independent_oracle():
    # frozen counts, confirmed by the oracle below: sizes 1..5 -> 1,1,1,2,3
    algs = list(enumerate_heyting(5))
    by_size = {}
    for a in algs:
        by_size[a.size] = by_size.get(a.size, 0) + 1
    assert by_size == {1: 1, 2: 1, 3: 1, 4: 2, 5: 3}
    oracle = oracle_enumerate(5)
    assert len(oracle) == len(algs)


def test_enumeration_matches_the_labelled_poset_oracle():
    """The backtracking poset generator keeps the first labelled poset of
    every isomorphism class that the generator over every pair bitmask
    kept: the same algebras, field for field, in the same order."""
    for max_size in range(1, 8):
        assert list(enumerate_heyting(max_size)) == enumerated_heyting(max_size)


def test_enumeration_members_and_determinism():
    algs = list(enumerate_heyting(3))
    assert [a.size for a in algs] == [1, 2, 3]
    assert algs[2].imp == chain(3).imp  # the 3-chain is present
    again = list(enumerate_heyting(3))
    assert [canonical_key(a) for a in algs] == [canonical_key(a) for a in again]


def test_enumeration_products_are_valid_and_duplicate_free():
    algs = list(enumerate_heyting(6))
    keys = [canonical_key(a) for a in algs]
    assert len(set(keys)) == len(keys)
    for h in algs:
        lat = h.lattice
        for x in range(h.size):
            for y in range(h.size):
                assert (h.imp_(x, y) == h.top) == h.le(x, y)
                assert lat.leq[lat.meet[x][h.imp_(x, y)]][y]
                for z in range(h.size):
                    # residuation, exhaustively
                    assert lat.leq[lat.meet[x][y]][z] == lat.leq[x][h.imp_(y, z)]


def test_enumeration_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_heyting(8))


def test_size_one_trivial_algebra():
    algs = list(enumerate_heyting(1))
    assert len(algs) == 1 and algs[0].size == 1
    assert algs[0].top == algs[0].bottom


# --- refinability ------------------------------------------------------------


def test_refinable_two_element_boolean():
    rep = check_refinable(chain(2))
    assert rep.refinable
    # every certificate really is a refining antichain with the same join
    h = chain(2)
    for subset, anti in rep.certificates:
        assert h.join_all(anti) == h.join_all(subset)
        for b in anti:
            assert any(h.le(b, a) for a in subset)


def test_refinable_trivial_algebra():
    rep = check_refinable(chain(1))
    assert rep.refinable


def test_refinable_three_chain_certificates():
    # each certificate is verified here, not presumed: an antichain with
    # its subset's join, made of the subset's maximal elements
    for h in enumerate_heyting(6):
        rep = check_refinable(h)
        assert isinstance(rep, RefinabilityReport)
        assert rep.refinable
        assert len(rep.certificates) == 1 << h.size
        for subset, anti in rep.certificates:
            assert h.join_all(anti) == h.join_all(subset)
            for a, b in itertools.combinations(anti, 2):
                assert not h.le(a, b) and not h.le(b, a)
            assert anti == tuple(a for a in subset if not any(b != a and h.le(a, b) for b in subset))
    certs = dict(check_refinable(chain(3)).certificates)
    assert certs[(0, 1)] == (1,)  # max element refines a chain subset


def test_refinable_cap():
    with pytest.raises(CapExceeded):
        check_refinable(chain(3), hard_cap=2)


# --- text format --------------------------------------------------------------


def test_algebra_text_round_trip():
    h = boolean_algebra(2)
    text = format_algebra_text("b4", h)
    ident, back = parse_algebra_text(text)
    assert ident == "b4"
    assert back.lattice.leq == h.lattice.leq
    assert back.imp == h.imp


def test_algebra_text_comments_and_whitespace():
    text = """
    # a comment
    algebra c2   # trailing comment
    size 2
    leq
    1 1
    01
    end
    """
    ident, h = parse_algebra_text(text)
    assert ident == "c2" and h.size == 2 and h.boolean_flag
