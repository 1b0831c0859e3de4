"""Command-line surface: stable text I/O for scripted experiments.

Exit codes: 0 for valid / found / ok verdicts, 1 for invalid / not found,
2 for usage or input errors.  Machine format emits exactly one RESULT line
per check; all randomness flows from --seed, which is echoed.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import algebra as alg_mod
from . import axioms as ax_mod
from . import fidel as fid_mod
from . import names as names_mod
from . import proofs as proofs_mod
from . import search as search_mod
from . import valuation as val_mod
from .errors import PstError
from .syntax import SyntaxIssue, formula_to_text, parse_formula


class CliError(Exception):
    pass


def _load_model_file(path: str):
    """An .alg or .fst file, sniffed by its first keyword."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    head = ""
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            head = line.split()[0]
            break
    if head == "fstructure":
        ident, fs = fid_mod.parse_fstructure_text(text)
        return ident, fs
    if head == "algebra":
        ident, alg = alg_mod.parse_algebra_text(text)
        return ident, alg
    raise CliError(f"{path}: expected an 'algebra' or 'fstructure' file")


def _build_model(args, structure=None):
    if structure is None:
        _, structure = _load_model_file(args.model)
    store = names_mod.NameStore()
    mode = getattr(args, "mode", None)
    return val_mod.make_model(
        structure,
        store,
        args.rank,
        mode=mode,
        bounded_opt=getattr(args, "bounded_opt", False),
    )


def _emit(args, human_lines, result_line):
    if args.format == "machine":
        print(result_line)
    else:
        for line in human_lines:
            print(line)
        print(result_line)


def _imp_table_lines(h) -> list[str]:
    lines = [f"size {h.size} top {h.top} bottom {h.bottom} boolean {'yes' if h.boolean_flag else 'no'}"]
    lines.append("imp table (rows x, cols y, entry x->y):")
    for x in range(h.size):
        lines.append("  " + " ".join(str(h.imp_(x, y)) for y in range(h.size)))
    return lines


# --- subcommand handlers -----------------------------------------------------------


def _cmd_algebra_check(args) -> int:
    ident, h = alg_mod.load_algebra(args.file)
    _emit(
        args,
        [f"algebra {ident}: valid Heyting algebra"] + _imp_table_lines(h),
        f"RESULT valid=yes size={h.size} boolean={'yes' if h.boolean_flag else 'no'}",
    )
    return 0


def _cmd_algebra_enum(args) -> int:
    algs = list(alg_mod.enumerate_heyting(args.max_size))
    lines = []
    for i, h in enumerate(algs):
        rows = ["".join("1" if v else "0" for v in row) for row in h.lattice.leq]
        lines.append(f"# {i}: size {h.size} boolean={'yes' if h.boolean_flag else 'no'} leq={','.join(rows)}")
    _emit(args, lines, f"RESULT count={len(algs)} max_size={args.max_size}")
    return 0


def _cmd_algebra_refinable(args) -> int:
    _, h = alg_mod.load_algebra(args.file)
    rep = alg_mod.check_refinable(h)
    lines = []
    if rep.refinable:
        lines.append(f"refinable: every subset admits an equal-join antichain refinement")
        for subset, anti in rep.certificates[: args.show]:
            lines.append(f"  subset {set(subset) or '{}'} -> antichain {set(anti) or '{}'}")
    else:
        lines.append(f"not refinable: subset {set(rep.failing_subset)} admits no refinement")
    _emit(args, lines, f"RESULT refinable={'yes' if rep.refinable else 'no'}")
    return 0 if rep.refinable else 1


def _cmd_fstructure_check(args) -> int:
    ident, fs = _load_model_file(args.file)
    if not isinstance(fs, fid_mod.FStructure):
        raise CliError(f"{args.file}: not an fstructure file")
    try:
        if fs.kind == "n4":
            fid_mod.validate_n4(fs.algebra, fs.negs)
        else:
            fid_mod.validate_comega(fs.algebra, fs.negs)
    except fid_mod.FidelError as exc:
        _emit(args, [f"fstructure {ident}: INVALID ({exc})"], "RESULT valid=no")
        return 1
    _emit(args, [f"fstructure {ident}: valid {fs.kind} structure"], "RESULT valid=yes")
    return 0


def _cmd_fstructure_saturate(args) -> int:
    ident, h = alg_mod.load_algebra(args.file)
    fs = fid_mod.saturate(h, args.kind)
    text = fid_mod.format_fstructure_text(f"{ident}_sat", fs)
    if args.format == "human":
        sys.stdout.write(text)
    print(f"RESULT kind={args.kind} size={h.size}")
    return 0


def _cmd_fstructure_sub(args) -> int:
    _, f = _load_model_file(args.file_a)
    _, g = _load_model_file(args.file_b)
    if not isinstance(f, fid_mod.FStructure) or not isinstance(g, fid_mod.FStructure):
        raise CliError("substructure check needs two fstructure files")
    emb = fid_mod.is_substructure(f, g)
    lines = (
        [f"substructure: embedding {list(emb)}"]
        if emb is not None
        else ["no structure-preserving embedding"]
    )
    _emit(args, lines, f"RESULT substructure={'yes' if emb is not None else 'no'}")
    return 0 if emb is not None else 1


def _cmd_universe_enum(args) -> int:
    for flag, reader in (("count", "sampled"), ("max_dom", "domres")):
        if getattr(args, flag) is not None and args.policy != reader:
            raise CliError(f"--{flag.replace('_', '-')} is not read by the {args.policy} policy")
    count = 16 if args.count is None else args.count
    max_dom = 2 if args.max_dom is None else args.max_dom
    if min(count, max_dom) < 0:
        raise CliError("--count and --max-dom must be at least 0")
    _, structure = _load_model_file(args.model)
    h = structure.algebra if isinstance(structure, fid_mod.FStructure) else structure
    store = names_mod.NameStore()
    if args.policy == "full":
        policy = names_mod.Full()
    elif args.policy == "sampled":
        policy = names_mod.Sampled(seed=args.seed, count=count)
    else:
        policy = names_mod.DomainsRestricted(max_dom=max_dom)
    ids = names_mod.enumerate_universe(store, h, args.rank, policy)
    lines = []
    for nid in ids:
        n = store.get(nid)
        body = ", ".join(f"{c}:{e}" for c, e in n.entries)
        lines.append(f"name {n.nid} rank {n.rank} = {{ {body} }}")
    _emit(args, lines, f"RESULT count={len(ids)} rank={args.rank} seed={args.seed}")
    return 0


def _cmd_universe_hat(args) -> int:
    _, structure = _load_model_file(args.model)
    h = structure.algebra if isinstance(structure, fid_mod.FStructure) else structure
    store = names_mod.NameStore()
    # argparse before Python 3.12 reads the option value "--" as []
    s = names_mod.parse_hf(args.set if isinstance(args.set, str) else "--")
    nid = names_mod.hat_embed(s, store, h)
    lines = [store.dump()]
    _emit(args, lines, f"RESULT hat={nid} rank={store.get(nid).rank}")
    return 0


def _count_text(n: int) -> str:
    """n in decimal; past the interpreter's limit on the digits of an int
    printed (4300), its first three digits and its power of ten, as
    "about 1.23e15699"."""
    try:
        return str(n)
    except ValueError:
        power = int(math.log10(n)) - 2
        lead = n // 10**power
        while lead >= 1000:  # log10 rounds
            power, lead = power + 1, lead // 10
        while lead < 100:
            power -= 1
            lead = n // 10**power
        return f"about {lead // 100}.{lead % 100:02d}e{power + 2}"


def _cmd_eval(args) -> int:
    model = _build_model(args)
    phi = parse_formula(args.formula)
    quant = "all_assignments" if args.quant == "all" else "some_assignment"
    verdict = val_mod.check_valid(phi, model, quant)
    lines = []
    if args.format == "human":
        lines = [
            f"formula: {formula_to_text(phi)}",
            f"mode {verdict.mode}, scope {len(model.scope)} names (rank <= {model.rank_bound})",
            f"assignments: {_count_text(verdict.n_assignments)}; value range [{verdict.value_lo}, {verdict.value_hi}]",
            f"valid ({quant}): {'yes' if verdict.valid else 'no'}",
        ]
    _emit(args, lines, verdict.result_line())
    return 0 if verdict.valid else 1


def _cmd_leibniz(args) -> int:
    model = _build_model(args)
    phi = parse_formula(args.formula)
    quant = "all_assignments" if args.quant == "all" else "some_assignment"
    verdict = val_mod.check_leibniz(model, [(args.var, phi)], args.rank, quant)
    lines = [f"leibniz over rank <= {args.rank}: {'holds' if verdict.valid else 'violated'}"]
    lines += [f"  {d}" for d in verdict.detail]
    _emit(args, lines, verdict.result_line())
    return 0 if verdict.valid else 1


# the data flags each axiom check reads; the other checks read none
_AXIOM_DATA = {
    "pairing": ("u", "v"), "union": ("u",), "powerset": ("u",), "induction": ("formula", "quant", "var"),
    "separation": ("formula", "u", "quant", "var"), "collection": ("formula", "u", "quant", "var", "var2"),
}


def _cmd_axiom_check(args) -> int:
    name = args.axiom
    if name not in ax_mod.CHECKS:
        raise CliError(f"unknown axiom {name!r}; one of {sorted(ax_mod.CHECKS)}")
    reads = _AXIOM_DATA.get(name, ())
    for flag in ("formula", "u", "v", "quant", "var", "var2"):
        if getattr(args, flag) is not None and flag not in reads:
            raise CliError(f"--{flag} is not read by the {name} check")
    if args.v is not None and args.u is None:
        raise CliError("--v needs --u")
    if "formula" in reads and not args.formula:
        raise CliError(f"--formula required for {name}")
    model = _build_model(args)
    quant = "some_assignment" if args.quant == "some" else "all_assignments"
    var, var2 = ("x" if args.var is None else args.var), ("y" if args.var2 is None else args.var2)
    kwargs = {} if args.u is None else {"u": args.u}
    if name == "pairing" and args.u is not None:
        kwargs["v"] = args.u if args.v is None else args.v
    if name == "collection":
        kwargs.update(phi=parse_formula(args.formula), var_x=var, var_y=var2, quantification=quant)
    elif args.formula:
        kwargs.update(phi=parse_formula(args.formula), var=var, quantification=quant)
    report = ax_mod.CHECKS[name](model, **kwargs)
    lines = [
        f"axiom {report.axiom} over {report.model_summary}, rank {report.rank_bound}",
        f"value {report.value}; valid: {'yes' if report.valid else 'no'}",
    ]
    lines += [f"  witness {k} = name #{v}" for k, v in report.witnesses]
    lines += [f"  note: {n}" for n in report.notes]
    _emit(args, lines, report.result_line())
    return 0 if report.valid else 1


def _cmd_prove_check(args) -> int:
    from .syntax import parse_derivation_text

    with open(args.file, "r", encoding="utf-8") as fh:
        deriv = parse_derivation_text(fh.read())
    res = proofs_mod.check_derivation(deriv)
    if res.ok:
        _emit(
            args,
            [f"derivation {deriv.ident}: ok, proves {formula_to_text(res.proven)}"],
            "RESULT ok=yes",
        )
        return 0
    print(f"error line {res.line}: {res.reason}", file=sys.stderr)
    print(f"RESULT ok=no line={res.line}")
    return 1


def _cmd_prove_audit(args) -> int:
    rep = proofs_mod.audit_soundness(
        args.system, max_domain=args.max_domain, max_algebra=args.max_algebra
    )
    lines = [
        f"audited {rep.n_instances} instances / {rep.n_evaluations} evaluations "
        f"for {rep.system} (algebra <= {rep.max_algebra}, |S| <= {rep.max_domain})"
    ]
    for f in rep.failures[:10]:
        lines.append(
            f"  below top: {f.schema} {f.instance} (algebra {f.algebra_size}, value {f.value})"
        )
    _emit(args, lines, f"RESULT failures={len(rep.failures)}")
    return 0 if rep.ok else 1


def _cmd_counter_search(args) -> int:
    budget = search_mod.Budget(max_algebra=args.max_algebra, families=args.families)
    goal = search_mod.SearchGoal(
        kind=args.goal,
        formula=parse_formula(args.formula) if args.formula else None,
        premises=tuple(parse_formula(p) for p in args.premise),
        logic=args.logic,
        budget=budget,
    )
    out = search_mod.search(goal)
    if isinstance(out, search_mod.Finding):
        lines = [f"finding over algebra of size {out.algebra_size}:"]
        lines += [f"  {line}" for line in out.description]
        lines += [f"  {k} = {v}" for k, v in out.values]
        lines.append(f"  negation family: {[list(n) for n in out.structure.negs]}")
        lines.append(f"  seed={args.seed}")
        _emit(args, lines, f"RESULT found=yes seed={args.seed}")
        return 0
    census = " ".join(f"{k}={v}" for k, v in out.census)
    _emit(
        args,
        [f"exhausted search space ({census}); no certificate", f"seed={args.seed}"],
        f"RESULT found=no seed={args.seed}",
    )
    return 1


# --- parser ---------------------------------------------------------------------------


def _global_flags() -> argparse.ArgumentParser:
    """Shared flags, accepted both before and after the subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("human", "machine"), default=argparse.SUPPRESS
    )
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--jobs", type=int, default=argparse.SUPPRESS)
    return common


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pst",
        description="Desk-scale algebra-valued models for paraconsistent set theories.",
    )
    top.add_argument("--format", choices=("human", "machine"), default="human")
    top.add_argument("--seed", type=int, default=0, help="seed for any randomised step")
    top.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; searches run sequentially")
    sub = top.add_subparsers(dest="command", required=True)
    common = _global_flags()

    p_alg = sub.add_parser("algebra", help="lattice and Heyting algebra operations")
    alg_sub = p_alg.add_subparsers(dest="subcommand", required=True)
    p = alg_sub.add_parser("check", help="validate an algebra file, print the implication table", parents=[common])
    p.add_argument("file")
    p.set_defaults(func=_cmd_algebra_check)
    p = alg_sub.add_parser("enum", help="enumerate distributive lattices up to isomorphism", parents=[common])
    p.add_argument("--max-size", type=int, required=True)
    p.set_defaults(func=_cmd_algebra_enum)
    p = alg_sub.add_parser("refinable", help="antichain-refinement certificate search", parents=[common])
    p.add_argument("file")
    p.add_argument("--show", type=int, default=8, help="certificates to print")
    p.set_defaults(func=_cmd_algebra_refinable)

    p_fs = sub.add_parser("fstructure", help="F-structure operations")
    fs_sub = p_fs.add_subparsers(dest="subcommand", required=True)
    p = fs_sub.add_parser("check", help="validate the negation family clauses", parents=[common])
    p.add_argument("file")
    p.set_defaults(func=_cmd_fstructure_check)
    p = fs_sub.add_parser("saturate", help="emit the saturated family of an algebra", parents=[common])
    p.add_argument("file")
    p.add_argument("--kind", choices=("n4", "comega"), default="n4")
    p.set_defaults(func=_cmd_fstructure_saturate)
    p = fs_sub.add_parser("sub", help="substructure embedding search", parents=[common])
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_fstructure_sub)

    p_u = sub.add_parser("universe", help="name universe operations")
    u_sub = p_u.add_subparsers(dest="subcommand", required=True)
    p = u_sub.add_parser("enum", help="enumerate names of bounded rank", parents=[common])
    p.add_argument("--model", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--policy", choices=("full", "sampled", "domres"), default="full")
    p.add_argument("--count", type=int, default=None, help="samples per rank (sampled policy; default 16)")
    p.add_argument("--max-dom", type=int, default=None, help="domain cap (domres policy; default 2)")
    p.set_defaults(func=_cmd_universe_enum)
    p = u_sub.add_parser("hat", help="embed a hereditarily finite braces term", parents=[common])
    p.add_argument("--model", required=True)
    p.add_argument("--set", required=True, help="braces term, e.g. {{},{{}}}")
    p.set_defaults(func=_cmd_universe_hat)

    p = sub.add_parser("eval", help="truth value of a closed formula", parents=[common])
    p.add_argument("--model", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--quant", choices=("all", "some"), default="all")
    p.add_argument("--mode", choices=val_mod.MODES, default=None)
    p.add_argument("--bounded-opt", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("leibniz", help="indiscernibility inequality over name pairs", parents=[common])
    p.add_argument("--model", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--formula", required=True, help="formula with one free variable")
    p.add_argument("--var", default="x")
    p.add_argument("--quant", choices=("all", "some"), default="all")
    p.add_argument("--mode", choices=val_mod.MODES, default=None)
    p.set_defaults(func=_cmd_leibniz)

    p_ax = sub.add_parser("axiom", help="set-theoretic axiom checks")
    ax_sub = p_ax.add_subparsers(dest="subcommand", required=True)
    p = ax_sub.add_parser("check", help="run one axiom check", parents=[common])
    p.add_argument("--axiom", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--quant", choices=("all", "some"), default=None, help="default: all")
    p.add_argument("--formula", default=None)
    p.add_argument("--var", default=None, help="default: x")
    p.add_argument("--var2", default=None, help="default: y")
    p.add_argument("--u", type=int, default=None, help="name id (default: every scope name)")
    p.add_argument("--v", type=int, default=None)
    p.add_argument("--mode", choices=val_mod.MODES, default=None)
    p.set_defaults(func=_cmd_axiom_check)

    p_pr = sub.add_parser("prove", help="Hilbert-style proof kernel")
    pr_sub = p_pr.add_subparsers(dest="subcommand", required=True)
    p = pr_sub.add_parser("check", help="check a derivation file", parents=[common])
    p.add_argument("file")
    p.set_defaults(func=_cmd_prove_check)
    p = pr_sub.add_parser("audit", help="evaluate axiom instances over structure budgets", parents=[common])
    p.add_argument("--system", choices=sorted(proofs_mod.SYSTEMS), default="qn4")
    p.add_argument("--max-domain", type=int, default=2)
    p.add_argument("--max-algebra", type=int, default=4)
    p.set_defaults(func=_cmd_prove_audit)

    p_c = sub.add_parser("counter", help="countermodel search")
    c_sub = p_c.add_subparsers(dest="subcommand", required=True)
    p = c_sub.add_parser("search", help="run a search goal", parents=[common])
    p.add_argument("--goal", choices=search_mod.GOALS + ("congruence",), required=True)
    p.add_argument("--max-algebra", type=int, default=3)
    p.add_argument("--formula", default=None)
    p.add_argument("--premise", action="append", default=[])
    p.add_argument("--logic", choices=("n4", "comega"), default="n4")
    p.add_argument("--families", choices=("saturated", "all"), default="saturated")
    p.set_defaults(func=_cmd_counter_search)
    return top


def _cmd_counter_congruence(args) -> int:
    budget = search_mod.Budget(max_algebra=args.max_algebra, families=args.families)
    out = search_mod.congruence_probe(budget, logic=args.logic)
    if isinstance(out, search_mod.Finding):
        lines = [f"finding over algebra of size {out.algebra_size}:"]
        lines += [f"  {line}" for line in out.description]
        _emit(args, lines, f"RESULT found=yes seed={args.seed}")
        return 0
    _emit(args, ["no value admits two negation choices"], f"RESULT found=no seed={args.seed}")
    return 1


_parser: argparse.ArgumentParser | None = None  # built by the first main call


def main(argv: list[str] | None = None) -> int:
    # One parser serves every call: parse_args makes a fresh Namespace each
    # time, and nothing a check loads or builds is kept past its call.
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "goal", None) == "congruence":
            return _cmd_counter_congruence(args)
        return args.func(args)
    except (PstError, SyntaxIssue, CliError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # exit 1 would read as "invalid"
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
