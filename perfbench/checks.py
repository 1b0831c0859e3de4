"""Check templates, their known answers, and the seeded workload generator.

Every expected verdict below is written by hand from the mathematics of the
models, never captured from a run of pst.  Each template carries the reason
for its answer: a theorem of the logic, a fact stated in README.md/PAPER.md,
or the test that pins it.

A workload is a list of slots.  One round of a workload draws, for every
slot, ``count`` checks from the slot's variants, then shuffles the round.
The slot counts are fixed, so every seed draws the same amount of each kind
of work; the seed picks the models, targets, formulas and order.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass

# Model files the generator writes, by stem: (algebra size, top element,
# Boolean?).  chain<n> is the n-element chain 0 < ... < n-1; b4 is the
# four-element Boolean algebra of subsets of {a, b} (bitmask order, top 3).
MODELS = {
    "chain2": (2, 1, True),
    "chain3": (3, 2, False),
    "chain4": (4, 3, False),
    "b4": (4, 3, True),
}
KINDS = ("comega", "n4")

# Distributive lattices with at most n elements, up to isomorphism: partial
# sums of OEIS A006982 (1, 1, 1, 2, 3, 5, 8 lattices of sizes 1..7).
A006982_CUMULATIVE = {4: 5, 5: 8, 6: 13, 7: 21}

# Exit-2 message of an assignment-cap trip (valuation.ASSIGNMENT_CAP).
CAP_MESSAGE = "more than 50000"


def scope_size(stem: str, rank: int) -> int:
    """Names of rank <= rank over an m-element algebra: the empty name at
    rank 1, and (m + 1) ** |previous level| functions at each next rank."""
    m = MODELS[stem][0]
    names = 1
    for _ in range(rank - 1):
        names = (m + 1) ** names
    return names


@dataclass(frozen=True)
class Template:
    argv: str  # pst arguments; {model}, {rank}, {u}, {v}, {k}, {seed} are filled per check
    rc: int  # expected exit code
    expect: str  # expected RESULT fields; {top}, {mode}, {rank}, {seed}, {count} are filled
    reason: str
    budget_s: float = 5.0  # wall budget; a slower check counts as failed
    reach: bool = False  # trips a cap at the seed: exit 2 is a counted, expected failure


EQ_LEM = "forall x . forall y . (x eq y | ~(x eq y))"
BOUNDED = "forall x . forall y . (x in y -> exists z . (z in y & z eq x))"
CONTRA = "exists x . (x eq x & ~(x eq x))"
DNEG_EQ = "forall x . (~~(x eq x) -> x eq x)"

TEMPLATES: dict[str, Template] = {
    # --- rank3-dense: negation is the pseudo-complement, one empty assignment
    "eq-refl": Template(
        'eval --model {model} --rank {rank} --formula "forall x . x eq x"',
        0, "mode={mode} rank={rank} value={top} valid=yes",
        "||u = u|| = top for every name (reflexivity; test_acceptance test_04)",
    ),
    "eq-sym": Template(
        'eval --model {model} --rank {rank} --formula "forall x . forall y . (x eq y -> y eq x)"',
        0, "mode={mode} rank={rank} value={top} valid=yes",
        "equality is symmetric by construction, so each implication is a -> a = top",
    ),
    "eq-trans": Template(
        'eval --model {model} --rank {rank} --formula '
        '"forall x . forall y . forall z . ((x eq y & y eq z) -> x eq z)"',
        0, "mode={mode} rank={rank} value={top} valid=yes",
        "||x = y|| & ||y = z|| <= ||x = z|| (transitivity; test_acceptance test_04)",
    ),
    "eq-lem-boolean": Template(
        f'eval --model {{model}} --rank {{rank}} --formula "{EQ_LEM}"',
        0, "mode=boolean rank={rank} value={top} valid=yes",
        "a | (a -> 0) = top in a Boolean algebra",
    ),
    "eq-lem-chain": Template(
        f'eval --model {{model}} --rank {{rank}} --formula "{EQ_LEM}"',
        1, "mode=heyting rank={rank} value=1 valid=no",
        "on a chain e | ~e >= 1 for every e, and the rank-2 names {0:1}, {0:top} "
        "have ||x = y|| = 1 with 1 | (1 -> 0) = 1 < top",
    ),
    "bounded-opt": Template(
        f'eval --model {{model}} --rank {{rank}} --bounded-opt --formula "{BOUNDED}"',
        0, "mode={mode} rank={rank} value={top} valid=yes",
        "read as a bounded quantifier, exists z in y (z = x) is ||x in y|| itself, "
        "so the body is a -> a = top (test_acceptance test_05)",
        budget_s=15.0,
    ),
    "unbounded": Template(
        f'eval --model {{model}} --rank {{rank}} --formula "{BOUNDED}"',
        0, "mode={mode} rank={rank} value={top} valid=yes",
        "the scope join includes every z in dom(y), where ||z in y|| >= y(z), "
        "so it bounds ||x in y|| from above",
    ),
    "leibniz-mem": Template(
        'leibniz --model {model} --rank {rank} --formula "x in #{k}" --var x',
        0, "mode={mode} rank={rank} value={top} valid=yes",
        "Heyting-valued equality is a congruence for negation-free formulas: "
        "||u = v|| & phi(u) <= phi(v)",
        budget_s=15.0,
    ),
    "leibniz-exists": Template(
        'leibniz --model {model} --rank {rank} --formula "exists y . (y in x)" --var x',
        0, "mode={mode} rank={rank} value={top} valid=yes",
        "Heyting-valued equality is a congruence for negation-free formulas",
    ),
    "ext": Template(
        "axiom check --axiom extensionality --model {model} --rank {rank}",
        0, "axiom=extensionality rank={rank} quant=none value={top} valid=yes",
        "extensionality holds in Heyting-valued models (test_acceptance test_06, test_08)",
    ),
    "powerset-all": Template(
        "axiom check --axiom powerset --model {model} --rank {rank}",
        0, "axiom=powerset rank={rank} quant=none value={top} valid=yes",
        "the powerset witness realises the axiom exactly (test_acceptance test_06, test_08)",
        budget_s=15.0,
    ),
    "emptyset": Template(
        "axiom check --axiom emptyset --model {model} --rank {rank}",
        0, "axiom=emptyset rank={rank} quant=all_assignments value={top} valid=yes",
        "with the pseudo-complement the only choice of ~(u = u) is 0, and "
        "||u in {u:0}|| = 0 (test_acceptance test_06)",
    ),
    "comprehension": Template(
        "axiom check --axiom comprehension --model {model} --rank {rank}",
        0, "axiom=comprehension-refuted rank={rank} quant=none value=0 valid=yes",
        "README: exists x forall y (y in x) has value bottom under rank-stratified scoping",
    ),
    "infinity": Template(
        "axiom check --axiom infinity --model {model} --rank {rank}",
        0, "axiom=infinity-reflection rank={rank} quant=none value={top} valid=yes",
        "restricted negation-free facts transfer exactly through the hat "
        "embedding (test_acceptance test_10)",
    ),
    # --- witness-negation: saturated F-structures, N_e = {y : e | y = top}
    "lem-sat": Template(
        f'eval --model {{model}} --rank {{rank}} --formula "{EQ_LEM}"',
        0, "mode={mode} rank={rank} quant=all_assignments value={top} valid=yes",
        "every admissible choice c for ~a lies in N_a, so a | c = top",
    ),
    "lem1-sat": Template(
        'eval --model {model} --rank {rank} --formula "forall x . (x eq x | ~(x eq x))"',
        0, "mode={mode} rank={rank} quant=all_assignments value={top} valid=yes",
        "every admissible choice c for ~a lies in N_a, so a | c = top",
    ),
    "contra-some": Template(
        f'eval --model {{model}} --rank {{rank}} --quant some --formula "{CONTRA}"',
        0, "mode={mode} rank={rank} quant=some_assignment value={top} valid=yes",
        "||x = x|| = top and top is in N_top, so ~(x = x) may be top too (non-explosion, README)",
    ),
    "contra-all": Template(
        f'eval --model {{model}} --rank {{rank}} --quant all --formula "{CONTRA}"',
        1, "mode={mode} rank={rank} quant=all_assignments value=0 valid=no",
        "0 is in N_top, and the assignment choosing 0 at every atom ~(x = x) gives value 0",
    ),
    "dneg-mem": Template(
        'eval --model {model} --rank {rank} --formula "forall x . forall y . (~~(x in y) -> x in y)"',
        0, "mode={mode} rank={rank} quant=all_assignments value={top} valid=yes",
        "comega bounds a double negation by the unnegated value; n4 cancels it",
    ),
    "dneg-eq": Template(
        f'eval --model {{model}} --rank {{rank}} --formula "{DNEG_EQ}"',
        0, "mode={mode} rank={rank} quant=all_assignments value={top} valid=yes",
        "the consequent ||x = x|| is top, so every implication is top",
    ),
    "demorgan-n4": Template(
        "eval --model {model} --rank {rank} --formula "
        '"forall x . forall y . (~(x in y & y in x) <-> (~(x in y) | ~(y in x)))"',
        0, "mode=n4 rank={rank} quant=all_assignments value={top} valid=yes",
        "n4 defines ~(A & B) as ~A | ~B, with one choice per ground atom",
    ),
    "sep-neq-all": Template(
        'axiom check --axiom separation --model {model} --rank {rank} --formula "~(x eq x)" --var x',
        1, "axiom=separation rank={rank} quant=all_assignments value=0 valid=no",
        "negation is not congruential: ||0 = {0:0}|| = top, yet ~(0 = 0) may be top "
        "while ~({0:0} = {0:0}) is 0; with u = {0:top} the biconditional is 0",
    ),
    "sep-neq-some": Template(
        'axiom check --axiom separation --model {model} --rank {rank} '
        '--formula "~(x eq x)" --var x --quant some',
        0, "axiom=separation rank={rank} quant=some_assignment value={top} valid=yes",
        "choosing top at every ~(x = x) makes phi constant top, and separation "
        "by a constant formula holds",
    ),
    "sep-nmem": Template(
        'axiom check --axiom separation --model {model} --rank {rank} --formula "~(x in x)" --var x',
        0, "axiom=separation rank={rank} quant=all_assignments value={top} valid=yes",
        "at rank <= 2, ||x in x|| = a & (a -> 0) = 0, and N_0 = {top} forces ~(x in x) = top",
    ),
    "coll": Template(
        'axiom check --axiom collection --model {model} --rank {rank} '
        '--formula "~(x in y)" --var x --var2 y',
        0, "axiom=collection rank={rank} quant=all_assignments value={top} valid=yes",
        "the witness has value top on the whole scope, so both sides of the "
        "collection inequality are the same join",
    ),
    "ind-nmem": Template(
        'axiom check --axiom induction --model {model} --rank {rank} --formula "~(x in x)" --var x',
        0, "axiom=induction rank={rank} quant=all_assignments value={top} valid=yes",
        "at rank <= 2, ~(x in x) is forced to top, so the schema's consequent is top",
    ),
    "pair-at": Template(
        "axiom check --axiom pairing --model {model} --rank {rank} --u {u} --v {v}",
        0, "axiom=pairing rank={rank} quant=none value={top} valid=yes",
        "||z in {u, v}|| is ||z = u|| | ||z = v|| by definition",
    ),
    "union-at": Template(
        "axiom check --axiom union --model {model} --rank {rank} --u {u}",
        0, "axiom=union rank={rank} quant=none value={top} valid=yes",
        "the union name realises exists t (t in u & y in t) exactly (test_acceptance test_06)",
    ),
    "powerset-at": Template(
        "axiom check --axiom powerset --model {model} --rank {rank} --u {u}",
        0, "axiom=powerset rank={rank} quant=none value={top} valid=yes",
        "the powerset witness realises the axiom exactly (test_acceptance test_06)",
    ),
    "sep-at-heyting": Template(
        'axiom check --axiom separation --model {model} --rank {rank} --u {u} '
        '--formula "~(x in x)" --var x',
        0, "axiom=separation rank={rank} quant=all_assignments value={top} valid=yes",
        "Heyting-valued formulas are extensional, so separation holds for every formula",
    ),
    # reach checks: these trip ASSIGNMENT_CAP at the seed; if a later change
    # lets them finish, the answer must be the one given here.
    "reach-lem": Template(
        f'eval --model {{model}} --rank {{rank}} --formula "{EQ_LEM}"',
        0, "mode={mode} rank={rank} quant=all_assignments value={top} valid=yes",
        "every admissible choice c for ~a lies in N_a, so a | c = top",
        reach=True,
    ),
    "reach-contra": Template(
        f'eval --model {{model}} --rank {{rank}} --quant some --formula "{CONTRA}"',
        0, "mode={mode} rank={rank} quant=some_assignment value={top} valid=yes",
        "top is in N_top, so ~(x = x) may be top (non-explosion, README)",
        reach=True,
    ),
    "reach-dneg-eq": Template(
        f'eval --model {{model}} --rank {{rank}} --formula "{DNEG_EQ}"',
        0, "mode={mode} rank={rank} quant=all_assignments value={top} valid=yes",
        "the consequent ||x = x|| is top, so every implication is top",
        reach=True,
    ),
    # --- search-audit: propositional checks, no names
    "ne": Template(
        "counter search --goal non_explosion --max-algebra {m} --seed {seed}",
        0, "found=yes seed={seed}",
        "over the 2-element algebra N_top = {0, 1}: ||p|| = ||~p|| = top while "
        "||q|| = 0 (README; test_acceptance test_12)",
    ),
    "refute-thm": Template(
        'counter search --goal refute_formula --formula "{f}" --logic {logic} '
        "--max-algebra {m} --seed {seed}",
        1, "found=no seed={seed}",
        "theorems: p -> p, (p & q) -> p and p -> (q -> p) hold in every Heyting algebra; "
        "p | ~p holds since N_a = {y : a | y = top}; ~~p -> p holds since comega bounds "
        "~~p by p and n4 cancels ~~; n4 De Morgan is structural",
    ),
    "refute-nonthm": Template(
        'counter search --goal refute_formula --formula "{f}" --logic {logic} '
        "--max-algebra {m} --seed {seed}",
        0, "found=yes seed={seed}",
        "p fails at p = 0; (p & ~p) -> q fails at p = ~p = top, q = 0 (non-explosion); "
        "contraposition fails at p = q = top with ~q = top, ~p = 0",
    ),
    "families-all": Template(
        'counter search --goal refute_formula --formula "{f}" --logic comega '
        "--max-algebra 4 --families all --seed {seed}",
        1, "found=no seed={seed}",
        "every comega family satisfies a | a' = 1 and has a double-negation witness "
        "below a, so p | ~p and ~~p -> p hold; p -> (q -> p) is negation-free",
        budget_s=30.0,
    ),
    "search-jobs2": Template(
        'counter search --goal refute_formula --formula "{f}" --logic comega '
        "--max-algebra {m} --jobs {jobs} --seed {seed}",
        1, "found=no seed={seed}",
        "the formula is a comega theorem, and --jobs partitions the search "
        "without changing its result (README)",
    ),
    "seq-explosion": Template(
        'counter search --goal refute_sequent --premise "p" --premise "~p" --formula "q" '
        "--logic {logic} --max-algebra {m} --seed {seed}",
        0, "found=yes seed={seed}",
        "p = ~p = top with q = 0 over the 2-element algebra (non-explosion)",
    ),
    "seq-valid": Template(
        'counter search --goal refute_sequent {premises} --formula "{f}" '
        "--logic {logic} --max-algebra {m} --seed {seed}",
        1, "found=no seed={seed}",
        "p, p -> q |- q and p & q |- q & p are sound in every Heyting algebra",
    ),
    "separate": Template(
        "counter search --goal separate_n4_n3 --max-algebra {m} --seed {seed}",
        0, "found=yes seed={seed}",
        "the explosion axiom N14 fails over a non-explosive structure "
        "(README; test_acceptance test_12)",
    ),
    "congruence": Template(
        "counter search --goal congruence --logic {logic} --max-algebra {m} --seed {seed}",
        0, "found=yes seed={seed}",
        "N_top = {0, 1} in the 2-element algebra: one value, two negation choices",
    ),
    "audit-sound": Template(
        "prove audit --system {system} --max-algebra 5",
        0, "failures=0",
        "qn4 and qcw are sound for their own negation semantics (proofs.audit_soundness; "
        "test_acceptance test_11 for qn4)",
        budget_s=15.0,
    ),
    "audit-qn3": Template(
        "prove audit --system qn3 --max-algebra 4",
        1, "failures=>0",
        "qn3 adds the explosion axiom N14, which non-explosive structures refute",
        budget_s=15.0,
    ),
    "enum": Template(
        "algebra enum --max-size {m}",
        0, "count={count} max_size={m}",
        "distributive lattices up to isomorphism, OEIS A006982 partial sums",
    ),
    "refinable": Template(
        "algebra refinable {alg}",
        0, "refinable=yes",
        "the maximal elements of a finite subset form an antichain with the same join",
    ),
    "fs-check-valid": Template(
        "fstructure check {model}",
        0, "valid=yes",
        "saturated families satisfy the comega clauses always, and the n4 clauses "
        "exactly over Boolean algebras (README)",
    ),
    "fs-check-invalid": Template(
        "fstructure check {model}",
        1, "valid=no",
        "saturated n4 families fail clause (iii) on non-Boolean algebras (README, criterion 2)",
    ),
    "fs-sub-yes": Template(
        "fstructure sub {model} {model_b}",
        0, "substructure=yes",
        "a smaller chain embeds in a larger one keeping 0 and top, and saturated "
        "N_x of a chain is {top} below top",
    ),
    "fs-sub-no": Template(
        "fstructure sub {model} {model_b}",
        1, "substructure=no",
        "B4 has incomparable elements, so it has no lattice embedding into a chain; "
        "a 3-chain into B4 cannot keep a -> 0 = 0",
    ),
}


def _alg(stem, rank):
    return {"model": f"{stem}.alg", "rank": rank}


def _fst(stem, kind, rank):
    return {"model": f"{stem}_{kind}.fst", "rank": rank}


def _sat(stems, rank):
    """Both saturated structures, comega and n4, over each algebra."""
    return [_fst(s, k, rank) for s in stems for k in KINDS]


def _with(variants, **extra):
    """Cross every variant with every value of each extra parameter."""
    out = list(variants)
    for key, values in extra.items():
        out = [dict(v, **{key: x}) for v in out for x in values]
    return out


# Theorems for refute_formula, by cost: one atom, two atoms without negation.
_ONE_ATOM = [{"f": f, "logic": lg} for f in ("p -> p", "p | ~p", "~~p -> p") for lg in KINDS]
_TWO_ATOMS = [{"f": "(p & q) -> p", "logic": "n4"}, {"f": "p -> (q -> p)", "logic": "comega"}]
_NON_THEOREMS = [
    {"f": f, "logic": lg} for f in ("p", "(p & ~p) -> q", "(p -> q) -> (~q -> ~p)") for lg in KINDS
]
_SEQUENTS = _with(
    [
        {"premises": '--premise "p" --premise "p -> q"', "f": "q"},
        {"premises": '--premise "p & q"', "f": "q & p"},
    ],
    logic=KINDS,
)


# A slot is (count per round, template, variants).  The variants of a slot
# cost about the same, so the seed changes what is drawn but hardly how much
# work a round holds.
WORKLOADS: dict[str, list[tuple[int, str, list[dict]]]] = {
    "rank3-dense": [
        # heavy: universe build plus folds over the 256-name 3-chain scope
        (1, "eq-sym", [_alg("chain3", 3)]),
        (1, "eq-lem-chain", [_alg("chain3", 3)]),
        (1, "bounded-opt", [_alg("chain3", 3)]),
        (1, "powerset-all", [_alg("chain3", 3)]),
        (1, "leibniz-mem", [_alg("chain3", 3)]),
        # medium: the 27-name 2-chain scope at rank 3
        (2, "eq-trans", [_alg("chain2", 3)]),
        (2, "unbounded", [_alg("chain2", 3)]),
        (2, "leibniz-exists", [_alg("chain2", 3)]),
        (2, "comprehension", [_alg("chain4", 2), _alg("b4", 2)]),
        # light
        (1, "eq-refl", [_alg("chain3", 3)]),
        (1, "eq-refl", [_alg("chain2", 3)]),
        (2, "eq-trans", [_alg("chain4", 2), _alg("b4", 2)]),
        (1, "eq-sym", [_alg("chain4", 2), _alg("b4", 2)]),
        (2, "eq-lem-boolean", [_alg("chain2", 3)]),
        (1, "eq-lem-boolean", [_alg("b4", 2)]),
        (2, "eq-lem-chain", [_alg("chain3", 2), _alg("chain4", 2)]),
        (1, "bounded-opt", [_alg("chain2", 3)]),
        (2, "ext", [_alg("chain2", 3)]),
        (2, "ext", [_alg("chain3", 2), _alg("chain4", 2), _alg("b4", 2)]),
        (2, "powerset-all", [_alg("chain2", 3)]),
        (2, "emptyset", [_alg("chain3", 3)]),
        (1, "emptyset", [_alg("chain2", 3)]),
        (1, "comprehension", [_alg("chain3", 2)]),
        (3, "infinity", [_alg("chain3", 2), _alg("chain4", 2), _alg("b4", 2)]),
        (1, "leibniz-mem", [_alg("chain3", 2), _alg("chain4", 2)]),
    ],
    "witness-negation": [
        # reach: trip ASSIGNMENT_CAP at the seed
        (1, "reach-lem", _sat(["chain3"], 3)),
        (1, "reach-contra", _sat(["chain3"], 3)),
        (1, "reach-lem", [_fst("b4", "comega", 2)]),
        (1, "reach-dneg-eq", [_fst("b4", "comega", 2)]),
        # heavy: up to 7^5 = 16807 assignments on the 4-chain
        (1, "lem-sat", [_fst("chain4", "comega", 2)]),
        (1, "lem-sat", [_fst("chain4", "n4", 2)]),
        (1, "dneg-eq", [_fst("chain4", "comega", 2)]),
        (1, "dneg-mem", [_fst("chain4", "comega", 2)]),
        (1, "union-at", [_alg("chain3", 3)] + _sat(["chain3"], 3)),
        (1, "sep-neq-all", [_fst("chain4", "n4", 2)]),
        # light: 50 checks a round in all, so that p90 lands in the middle of
        # the two ~0.9 s checks above rather than on their slowest run, and
        # the median inside the chain3 sep-neq cluster
        (1, "lem-sat", [_fst("chain3", "comega", 2)]),
        (1, "lem-sat", [_fst("chain3", "n4", 2)]),
        (1, "lem1-sat", _sat(["chain3"], 2)),
        (1, "lem1-sat", [_fst("chain4", "n4", 2), _fst("b4", "n4", 2)]),
        (1, "lem1-sat", [_fst("chain4", "comega", 2), _fst("b4", "comega", 2)]),
        (1, "contra-some", _sat(["chain3"], 2)),
        (1, "contra-some", [_fst("chain4", "n4", 2), _fst("b4", "n4", 2)]),
        (1, "contra-some", [_fst("chain4", "comega", 2), _fst("b4", "comega", 2)]),
        (1, "contra-all", _sat(["chain3"], 2)),
        (1, "contra-all", [_fst("chain4", "n4", 2)]),
        (1, "dneg-mem", [_fst("chain3", "n4", 2), _fst("chain4", "n4", 2)]),
        (1, "dneg-mem", [_fst("chain3", "comega", 2)]),
        (1, "dneg-eq", [_fst("chain3", "comega", 2)]),
        (1, "demorgan-n4", [_fst("chain3", "n4", 2)]),
        (1, "demorgan-n4", [_fst("chain4", "n4", 2)]),
        (5, "sep-neq-all", _sat(["chain3"], 2)),
        (1, "sep-neq-some", _sat(["chain3"], 2)),
        (2, "sep-nmem", _sat(["chain3", "chain4", "b4"], 2)),
        (2, "coll", _sat(["chain3", "chain4"], 2)),
        (2, "ind-nmem", _sat(["chain3", "chain4", "b4"], 2)),
        (3, "pair-at", [_alg("chain3", 3)] + _sat(["chain3"], 3)),
        (2, "sep-at-heyting", [_alg("chain3", 3)]),
        (4, "pair-at", _sat(["chain4", "b4"], 2)),
        (2, "union-at", _sat(["chain4", "b4"], 2)),
        (2, "powerset-at", _sat(["chain4", "b4"], 2)),
    ],
    "search-audit": [
        # heavy: --families all exhausts every candidate family of size <= 4.
        # Nine of 59 checks a round, so that p90 (the 12th slowest of two
        # rounds) falls inside this cluster, not on its fastest member.
        (3, "families-all", [{"f": "~~p -> p"}]),
        (3, "families-all", [{"f": "p | ~p"}]),
        (3, "families-all", [{"f": "p -> (q -> p)"}]),
        (1, "audit-sound", [{"system": "qn4"}]),
        (1, "audit-sound", [{"system": "qcw"}]),
        (1, "audit-qn3", [{}]),
        # max-algebra 7: enumerate_heyting(7) dominates
        (1, "ne", [{"m": 7}]),
        (1, "refute-thm", [{"f": "p -> p", "logic": lg, "m": 7} for lg in KINDS]),
        (1, "refute-thm", [{"f": "~~p -> p", "logic": "comega", "m": 7}]),
        (1, "separate", [{"m": 7}]),
        (1, "enum", [{"m": 7}]),
        (1, "search-jobs2", [{"f": "~~p -> p", "m": 7}]),
        (1, "search-jobs2", [{"f": "p -> (q -> p)", "m": 6}]),
        # light: one slot per max-algebra; most at 5, so that the median
        # falls inside one cluster of checks of about the same cost
        (1, "ne", [{"m": 4}]),
        (1, "separate", [{"m": 4}]),
        (1, "congruence", [{"logic": lg, "m": 4} for lg in KINDS]),
        (1, "ne", [{"m": 5}]),
        (13, "refute-thm", _with(_ONE_ATOM, m=[5])),
        (1, "refute-thm", _with(_TWO_ATOMS, m=[5])),
        (3, "refute-nonthm", _with(_NON_THEOREMS, m=[5])),
        (2, "seq-explosion", [{"logic": lg, "m": 5} for lg in KINDS]),
        (1, "seq-valid", _with(_SEQUENTS, m=[5])),
        (1, "congruence", [{"logic": lg, "m": 5} for lg in KINDS]),
        (1, "separate", [{"m": 5}]),
        (1, "enum", [{"m": 5}]),
        (1, "ne", [{"m": 6}]),
        (2, "refute-thm", _with(_ONE_ATOM, m=[6])),
        (1, "refute-thm", [{"f": "~(p & q) -> (~p | ~q)", "logic": "n4", "m": 5}]),
        (1, "seq-valid", _with(_SEQUENTS, m=[6])),
        (1, "enum", [{"m": 6}]),
        (1, "refinable", [{"alg": "chain2.alg"}, {"alg": "chain3.alg"}]),
        (1, "refinable", [{"alg": "chain4.alg"}, {"alg": "b4.alg"}]),
        (2, "fs-check-valid", [{"model": f"{s}_comega.fst"} for s in MODELS]
            + [{"model": "chain2_n4.fst"}, {"model": "b4_n4.fst"}]),
        (1, "fs-check-invalid", [{"model": "chain3_n4.fst"}, {"model": "chain4_n4.fst"}]),
        (1, "fs-sub-yes", [
            {"model": f"chain{a}_{k}.fst", "model_b": f"chain{b}_{k}.fst"}
            for a, b in ((2, 3), (2, 4), (3, 4), (3, 3)) for k in KINDS
        ]),
        (1, "fs-sub-no", [
            {"model": f"{a}_{k}.fst", "model_b": f"{b}_{k}.fst"}
            for a, b in (("b4", "chain4"), ("chain3", "b4")) for k in KINDS
        ]),
    ],
}


@dataclass(frozen=True)
class Check:
    id: str
    template: str
    argv: tuple[str, ...]
    rc: int
    expect: tuple[tuple[str, str], ...]
    budget_s: float
    reach: bool


def _stem(model_file: str) -> str:
    return model_file.split(".")[0].split("_")[0]


def _mode(model_file: str) -> str:
    if model_file.endswith(".fst"):
        return model_file[:-4].split("_")[1]
    return "boolean" if MODELS[_stem(model_file)][2] else "heyting"


def make_check(check_id: str, key: str, params: dict, rng: random.Random, models_dir: str, jobs: int) -> Check:
    """Fill one template: draw its targets and seed, resolve model paths."""
    tpl = TEMPLATES[key]
    p = dict(params)
    p["seed"] = rng.randrange(1000)
    p["jobs"] = jobs
    if "model" in p:
        stem = _stem(p["model"])
        p["top"] = MODELS[stem][1]
        p["mode"] = _mode(p["model"])
        if "rank" in p:
            n = scope_size(stem, p["rank"])
            p["u"], p["v"], p["k"] = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    if "m" in p:
        p["count"] = A006982_CUMULATIVE.get(p["m"], "")
    argv = shlex.split(tpl.argv.format(**p))
    for i, arg in enumerate(argv):
        if arg.endswith((".alg", ".fst")):
            argv[i] = f"{models_dir}/{arg}"
    expect = tuple(tuple(f.split("=", 1)) for f in tpl.expect.format(**p).split())
    return Check(check_id, key, ("--format", "machine", *argv), tpl.rc, expect, tpl.budget_s, tpl.reach)


def make_rounds(workload: str, seed: int, rounds: int, models_dir: str, jobs: int) -> list[list[Check]]:
    """The seeded check list: ``rounds`` rounds, each one shuffled draw per slot."""
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for r in range(rounds):
        drawn = [
            (key, rng.choice(variants))
            for count, key, variants in WORKLOADS[workload]
            for _ in range(count)
        ]
        rng.shuffle(drawn)
        out.append([
            make_check(f"{workload}/r{r}/{i}:{key}", key, params, rng, models_dir, jobs)
            for i, (key, params) in enumerate(drawn)
        ])
    return out


def model_files() -> list[tuple[str, str, str | None]]:
    """(file name, algebra stem, F-structure kind or None) for every model file."""
    out = []
    for stem in MODELS:
        out.append((f"{stem}.alg", stem, None))
        out.extend((f"{stem}_{kind}.fst", stem, kind) for kind in KINDS)
    return out


def parse_result(stdout: str) -> dict[str, str] | None:
    """Fields of the last RESULT line, or None when there is none."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("RESULT "):
            return dict(f.split("=", 1) for f in line.split()[1:] if "=" in f)
    return None


def verdict_matches(check: Check, rc: int, stdout: str) -> bool:
    fields = parse_result(stdout)
    if rc != check.rc or fields is None:
        return False
    for key, want in check.expect:
        got = fields.get(key)
        if want == ">0":
            if got is None or not got.isdigit() or int(got) <= 0:
                return False
        elif got != want:
            return False
    return True
