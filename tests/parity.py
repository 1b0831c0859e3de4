"""Output parity of two pst source trees on the benchmark's checks.

Runs every check that the three workloads of ``perfbench/checks.py``
(``rank3-dense``, ``witness-negation``, ``search-audit``) draw at the given
seeds, and the fixed argvs of ``EXTRA``, through ``pst.cli.main``, once
under each source tree, in machine and in human format, and compares exit
code, stdout and stderr.  The derivations of ``derivation_corpus.py`` are
written beside the model files, and each is checked by ``prove check``
(``DERIVATIONS``).  Each argv that differs is printed with both
outputs; the exit status is 1 on any difference, 0 otherwise.

    python tests/parity.py PARENT_SRC [CHANGE_SRC] [--seeds 1-10] [--rounds 2]

PARENT_SRC and CHANGE_SRC are directories holding a ``pst`` package
(CHANGE_SRC defaults to this checkout's ``src``).  A PARENT_SRC that is not
a directory is taken as a git revision of this checkout, whose ``src`` is
extracted with ``git archive`` into a temporary directory (for example
``python tests/parity.py HEAD~1``).  ``--rounds`` is the number of
seeded rounds drawn per workload and seed (two rounds reach the benchmark's
minimum of 100 checks a run on every workload).  Each tree runs in a
process of its own, both at once, each check cold as the benchmark runs it.
``perfbench/checks.py`` is imported, never changed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from derivation_corpus import CURATED, ID_ARROW, MUTATIONS

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("rank3-dense", "witness-negation", "search-audit")
JOBS = 2

# argvs the benchmark never draws, {models} standing for its model directory:
# comega negated compounds in separation, collection and leibniz (several
# answer, several trip ASSIGNMENT_CAP), comega checks whose instances join
# in linked grids and in scalar components (one of them trips the cap in
# the join), comega sequent walks over several parts,
# comega searches and the qcw audit whose negated compounds take occurrence
# digits in the propositional walk, comprehension at rank 3, powerset at
# single rank-3 targets and over every B4 target, the check and the
# saturated families of each model algebra, rank-3 checks whose folds and
# all-target loops read classes of indiscernible names, rank-3 grids,
# separation and union over B4 and the 4-chain, negated Leibniz at rank 3
# (one of them trips ASSIGNMENT_CAP at the first pair), the --quant some
# witness of a contradiction over B4 at rank 3, the four checks decided by
# the definition of membership at rank 3, powerset, comprehension and
# choice-free collection decided by their identities at rank 3 (with
# unknown names in phi and as the target), choice-free Leibniz members and
# separation by a choice-free formula decided by the congruence lemma at
# rank 3 (with unknown names at ranks 0 and 2 and function terms),
# collection by a formula with negation choices counted from its probes
# (one of them trips ASSIGNMENT_CAP), induction by a choice-free formula
# decided by induction on rank (with unknown names and function terms),
# induction by formulas that bind the schema's default y, atoms whose
# variable sits inside a function term, the names of the universe under
# each enumeration policy, and usage errors and --help, each followed by an
# ordinary check, so that a parser that serves every call is compared right
# after an error exit
_SEPARATION = 'axiom check --axiom separation --model {models}/%s_comega.fst --rank %d --formula "%s" --var x'
_COLLECTION = 'axiom check --axiom collection --model {models}/%s_comega.fst --rank %d --formula "%s" --var x --var2 y'
_CHECKS = [
    *(
        _SEPARATION % (stem, 2, f) + quant
        for stem in ("chain3", "chain4", "b4")
        for f in ("~(x eq x & x eq x)", "~~(x eq x)", "~(x in x & x eq x)", "~(~(x in x) | x eq #0)")
        for quant in ("", " --quant some")
    ),
    _SEPARATION % ("chain3", 2, "~~(x eq x)") + " --u 2",
    _SEPARATION % ("chain3", 3, "~(x eq x & x eq x)"),
    _SEPARATION % ("chain3", 3, "~~(x in x)"),
    _SEPARATION % ("chain3", 3, "~(x in x & x eq x)") + " --quant some",
    _SEPARATION % ("chain3", 3, "~(x eq x)") + " --u 3",
    *(
        _COLLECTION % (stem, 2, f) + quant
        for stem in ("chain3", "b4")
        for f in ("~(x in y & y eq x)", "~~(x eq y)", "~(x eq x & y eq y)")
        for quant in ("", " --quant some")
    ),
    _COLLECTION % ("chain3", 2, "~(x in y & y eq x)") + " --u 3",
    _COLLECTION % ("chain4", 2, "~~(x in y)"),
    *(f'leibniz --model {{models}}/{stem}_comega.fst --rank 2 --formula "~~(x eq x)" --var x' for stem in ("chain3", "chain4")),
    *(
        f'eval --model {{models}}/{stem}_comega.fst --rank 2 --formula "{f}"{flag}{quant}'
        for stem in ("chain3", "b4")
        for f, flag in (
            ("forall x . forall y . (~~(x eq y) -> x eq y)", ""),
            ("forall x . forall y . (~~(x eq y) | (exists z . (z in y & ~(z eq x))))", " --bounded-opt"),
            ("forall x . (~~(x eq #1) | ~~(#1 eq x))", ""),
        )
        for quant in ("", " --quant some")
    ),
    'counter search --goal refute_sequent --premise "~(p & q)" --premise p --formula "~(p & q) & p" --logic comega',
    'counter search --goal refute_sequent --premise "~~p" --premise "~(p | q)" --formula "~(~p & q)" --logic comega',
    *(
        f"counter search --logic comega --max-algebra {m} {goal}"
        for m in (5, 6, 7)
        for goal in (
            '--goal refute_formula --formula "~~p -> p"',
            '--goal refute_formula --formula "~(p & q) | (p & q)"',
            '--goal refute_sequent --premise "~~(p | q)" --formula "p | q"',
        )
    ),
    *(
        f"counter search --logic comega --max-algebra 4 --families all {goal}"
        for goal in (
            '--goal refute_formula --formula "~~p -> p"',
            '--goal refute_formula --formula "~(p & q) | (p & q)"',
            '--goal refute_sequent --premise "~~(p | q)" --formula "p | q"',
        )
    ),
    "prove audit --system qcw --max-algebra 6",
    # the audits walked by group; the CLI prints the first 10 failures, and
    # test_sweep's walk_audit equality covers the rest
    "prove audit --system qn3 --max-algebra 5",
    "prove audit --system qn4 --max-algebra 6 --max-domain 1",
    "prove audit --system qcw --max-algebra 5 --max-domain 1",
    # the quantified instances at domain size 3; qn3 lists its failures
    "prove audit --system qn4 --max-algebra 4 --max-domain 3",
    "prove audit --system qn3 --max-algebra 3 --max-domain 3",
    *(f"axiom check --axiom comprehension --model {{models}}/{stem}.alg --rank 3" for stem in ("chain2", "chain3")),
    *(f"axiom check --axiom powerset --model {{models}}/chain3.alg --rank 3 --u {u}" for u in (0, 7, 100, 255)),
    "axiom check --axiom powerset --model {models}/b4.alg --rank 2",
    # folds and all-target checks over the classes of the 3-chain at rank 3
    "axiom check --axiom extensionality --model {models}/chain3.alg --rank 3",
    'eval --model {models}/chain3.alg --rank 3 --formula "forall x . forall y . forall z . ((x eq y & y eq z) -> x eq z)"',
    *(
        f"axiom check --axiom {axiom} --model {{models}}/{model} --rank 3"
        for axiom in ("union", "pairing")
        for model in ("chain3.alg", "chain3_comega.fst", "chain3_n4.fst")
    ),
    'eval --model {models}/chain3_n4.fst --rank 3 --formula "forall x . forall y . (x eq y | ~(x eq y) | (exists z . (z in y & z eq x)))"',
    # grids probed by class of rows, separation read as vectors over names,
    # and union's right side folded by the bounded lemma, at rank 3
    *(f'eval --model {{models}}/chain3_{kind}.fst --rank 3 --formula "forall x . forall y . (x eq y | ~(x eq y))"' for kind in ("comega", "n4")),
    'eval --model {models}/chain3_n4.fst --rank 3 --quant some --formula "exists x . (x eq x & ~(x eq x))"',
    'axiom check --axiom separation --model {models}/b4_n4.fst --rank 3 --formula "~(x in x)" --var x',
    *(f"axiom check --axiom union --model {{models}}/{stem}_n4.fst --rank 3" for stem in ("b4", "chain4")),
    # Leibniz by one loop over the names: each name's instance probed once
    *(
        f'leibniz --model {{models}}/chain3_{kind}.fst --rank 3 --formula "{f}"{quant}'
        for kind, f in (
            ("comega", "~(x in x)"),
            ("n4", "~(x in x)"),
            ("n4", "~(x in #5) | x eq x"),
            ("n4", "exists y . (y in x & ~(y in x))"),
        )
        for quant in ("", " --quant some")
    ),
    # the witness of a join prefix over B4 at rank 3, found digit by digit
    # (top is join-reducible there), and collection by a choice-free formula
    # read as one vector over the names
    *(f'eval --model {{models}}/b4_{kind}.fst --rank 3 --quant some --formula "exists x . (x eq x & ~(x eq x))"' for kind in ("comega", "n4")),
    'axiom check --axiom collection --model {models}/chain3.alg --rank 3 --formula "y eq x" --var x --var2 y',
    # pairing, union, emptyset and extensionality, decided by the definition
    # of membership: every target, single targets, and targets that name no
    # name (an error line each)
    *(
        f"axiom check --axiom {axiom} --model {{models}}/{model} --rank 3"
        for axiom in ("pairing", "union", "emptyset", "extensionality")
        for model in ("b4_n4.fst", "chain3_comega.fst")
    ),
    *(
        f"axiom check --axiom {target} --model {{models}}/chain3.alg --rank 3"
        for target in ("pairing --u 0 --v 255", "union --u 255", "pairing --u 99999", "union --u 99999")
    ),
    # powerset, comprehension and collection by a choice-free phi, decided
    # by their identities: every target over B4 and the 4-chain (4^5
    # candidate functions at most), unknown names in phi and as the target
    *(f"axiom check --axiom comprehension --model {{models}}/{model} --rank 3" for model in ("b4_n4.fst", "chain4_comega.fst")),
    *(f"axiom check --axiom powerset --model {{models}}/{model} --rank 3" for model in ("b4_n4.fst", "chain4.alg")),
    *(
        f'axiom check --axiom collection --model {{models}}/{model} --rank 3 --formula "y eq x" --var x --var2 y'
        for model in ("chain4.alg", "b4_n4.fst")
    ),
    'axiom check --axiom collection --model {models}/chain3.alg --rank 1 --formula "y eq #99999 & x eq x" --var x --var2 y',
    'axiom check --axiom collection --model {models}/chain3.alg --rank 2 --formula "y eq x" --var x --var2 y --u 99999',
    "axiom check --axiom powerset --model {models}/chain3.alg --rank 2 --u 99999",
    # choice-free Leibniz members and separation, decided by the congruence
    # lemma: quantified members, every B4 target, unknown names and
    # function terms (an error line each)
    *(
        f'leibniz --model {{models}}/{model} --rank 3 --formula "{f}"{quant}'
        for model in ("b4.alg", "chain4.alg")
        for f in ("x in #17", "exists y . (y in x)", "forall y . (y in x -> y in #17)", "~(x in #3) | x eq x")
        for quant in ("", " --quant some")
    ),
    'axiom check --axiom separation --model {models}/b4.alg --rank 3 --formula "~(x in x)" --var x',
    *(
        f'{check} --model {{models}}/chain3.alg --rank {rank} --formula "{f}" --var x'
        for check in ("leibniz", "axiom check --axiom separation")
        for rank, f in ((0, "x in #99999"), (2, "x in #99999"), (2, "#0 in f(x)"))
    ),
    # collection by a phi with negation choices: the running count of its
    # probes trips the cap over the n4 3-chain at rank 3, and a comega
    # compound is read pair by pair
    'axiom check --axiom collection --model {models}/chain3_n4.fst --rank 3 --formula "~(x in y)" --var x --var2 y',
    *(
        f'axiom check --axiom collection --model {{models}}/{stem}_comega.fst --rank 2 --formula "~~(x eq y)" --var x --var2 y'
        for stem in ("chain3", "chain4")
    ),
    # induction by a choice-free phi, decided by induction on rank: every
    # name of B4 and the 4-chain at rank 3, unknown names at ranks 0 and 2,
    # a function term (an error line each); and phi binding x_y, the y the
    # schema takes by default, beside its alpha-variant
    *(
        f'axiom check --axiom induction --model {{models}}/{model} --rank 3 --formula "{f}" --var x{quant}'
        for model in ("b4.alg", "chain4.alg", "b4_n4.fst")
        for f in ("x eq x", "exists y . (y in x)", "forall y . (y in x -> y in #17)", "x in #17")
        for quant in ("", " --quant some")
    ),
    'axiom check --axiom induction --model {models}/b4.alg --rank 3 --formula "~(x in x)" --var x',
    *(
        f'axiom check --axiom induction --model {{models}}/chain3.alg --rank {rank} --formula "{f}" --var x'
        for rank, f in ((0, "x in #99999"), (2, "x in #99999"), (2, "#0 in f(x)"), (2, "exists x_y . (x_y in x)"))
    ),
    *(
        f'axiom check --axiom induction --model {{models}}/chain3_{kind}.fst --rank 2 --formula "{f}" --var x'
        for kind in ("n4", "comega")
        for f in ("forall x_y . ~(x_y in x)", "forall z . ~(z in x)")
    ),
    # a variable inside a function term: an error line in folds and scalar
    # reads alike
    *(
        f'eval --model {{models}}/{model} --rank 2 --formula "{f}"'
        for model, f in (
            ("chain3.alg", "exists x . #0 in f(x)"),
            ("chain3.alg", "forall x . exists y . y eq f(x)"),
            ("chain3_n4.fst", "exists x . #0 in f(x)"),
            ("chain3.alg", "forall x . x in g(x)"),
            ("chain3_n4.fst", "forall x . forall y . ~(y eq f(x))"),
        )
    ),
    'leibniz --model {models}/chain3.alg --rank 2 --formula "#0 in f(x)" --var x',
    'axiom check --axiom collection --model {models}/chain3.alg --rank 2 --formula "y eq f(x)" --var x --var2 y',
    # every name's id, rank and entries under each enumeration policy
    *(
        f"universe enum --model {{models}}/{model} --rank {rank} --policy {policy}"
        for model, rank in (("chain3.alg", 3), ("b4.alg", 2))
        for policy in ("full", "sampled", "domres")
    ),
    # the tables each model algebra is built with: the implication table,
    # and the saturated families read from them
    *(
        text
        for stem in ("chain2", "chain3", "chain4", "b4")
        for text in (
            f"algebra check {{models}}/{stem}.alg",
            *(f"fstructure saturate {{models}}/{stem}.alg --kind {kind}" for kind in ("n4", "comega")),
        )
    ),
]
_USAGE = [
    "algebra",
    "algebra check {models}/chain3.alg --bogus",
    "eval --help",
    "counter search --goal refute_formula --formula p --premise p",
]
# the curated derivations and their single-line mutations, by file stem:
# their A1/A2 lines run the proof kernel's schema matching
DERIVATIONS = {"id_arrow": ID_ARROW, **CURATED, **{name: text for name, text, _ in MUTATIONS}}
EXTRA = [
    *(text for pair in zip(_USAGE, _CHECKS) for text in pair),
    *_CHECKS[len(_USAGE) :],
    *(f"prove check {{models}}/{name}.deriv" for name in DERIVATIONS),
]


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _argvs(seeds: list[int], rounds: int, models_dir: str) -> list[list[str]]:
    """Every distinct check argv, in machine and in human format."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import checks

    seen: dict[tuple[str, ...], None] = {}
    for workload in WORKLOADS:
        for seed in seeds:
            for round_checks in checks.make_rounds(workload, seed, rounds, models_dir, JOBS):
                for check in round_checks:
                    assert check.argv[:2] == ("--format", "machine")
                    for fmt in ("machine", "human"):
                        seen[("--format", fmt, *check.argv[2:])] = None
    for text in EXTRA:
        for fmt in ("machine", "human"):
            seen[("--format", fmt, *shlex.split(text.format(models=models_dir)))] = None
    return [list(argv) for argv in seen]


def _run_tree(src: str, argv_file: str, out_file: str) -> None:
    """Child process: every argv through one tree's cli.main, as JSON lines."""
    sys.path.insert(0, src)
    import pst.cli

    if Path(pst.cli.__file__).resolve().parent != (Path(src) / "pst").resolve():
        raise SystemExit(f"parity: imported pst from {pst.cli.__file__}, not from {src}")
    argvs = json.loads(Path(argv_file).read_text())
    with open(out_file, "w", encoding="utf-8") as fh:
        for argv in argvs:
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = pst.cli.main(list(argv))
                except Exception as exc:  # a traceback is an output like any other
                    rc, err = "raised", io.StringIO(f"{type(exc).__name__}: {exc}")
            fh.write(json.dumps([rc, out.getvalue(), err.getvalue()]) + "\n")


def _write_models(src: str, models_dir: str) -> None:
    sys.path.insert(0, src)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import worker

    worker.write_models(models_dir)


def _revision_src(rev: str, tmp: str) -> str | None:
    """The ``src`` tree of git revision rev, extracted under tmp; None when
    rev names no revision."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
    if archive.returncode:
        return None
    out = Path(tmp) / "revision"
    out.mkdir()
    subprocess.run(["tar", "-x", "-C", str(out)], input=archive.stdout, check=True)
    return str(out / "src")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src", nargs="?", default=str(ROOT / "src"))
    ap.add_argument("--seeds", default="1-10", help="seeds, e.g. 1-10 or 1,3,5")
    ap.add_argument("--rounds", type=int, default=2, help="rounds per workload and seed")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="pst-parity-") as tmp:
        trees = [str(Path(p).resolve()) for p in (args.parent_src, args.change_src)]
        if not Path(args.parent_src).is_dir():
            trees[0] = _revision_src(args.parent_src, tmp)
            if trees[0] is None:
                print(f"parity: {args.parent_src} is neither a directory nor a git revision", file=sys.stderr)
                return 2
        models_dir = str(Path(tmp) / "models")
        Path(models_dir).mkdir()
        subprocess.run([sys.executable, __file__, "--models", trees[1], models_dir], check=True)
        for name, text in DERIVATIONS.items():
            (Path(models_dir) / f"{name}.deriv").write_text(text)
        argvs = _argvs(_seeds(args.seeds), args.rounds, models_dir)
        argv_file = str(Path(tmp) / "argvs.json")
        Path(argv_file).write_text(json.dumps(argvs))
        outs = [str(Path(tmp) / f"out{i}.jsonl") for i in range(2)]
        children = [
            subprocess.Popen([sys.executable, __file__, "--child", tree, argv_file, out])
            for tree, out in zip(trees, outs)
        ]
        if any(child.wait() for child in children):
            print("parity: a tree's run failed", file=sys.stderr)
            return 2
        results = [Path(out).read_text().splitlines() for out in outs]
    differ = 0
    for argv, parent, change in zip(argvs, *results):
        if parent != change:
            differ += 1
            print("differs:", " ".join(argv))
            for name, line in (("parent", parent), ("change", change)):
                rc, out, err = json.loads(line)
                print(f"  {name}: exit {rc}")
                for text in (out + err).splitlines():
                    print(f"    {text}")
    print(f"{len(argvs)} argvs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:  # internal: one tree's run
        _run_tree(*sys.argv[2:5])
    elif sys.argv[1:2] == ["--models"]:  # internal: the shared model files
        _write_models(*sys.argv[2:4])
    else:
        sys.exit(main())
