"""Span tracing of pst from outside the program.

``Tracer.install`` wraps every public module-level function of the traced pst
modules, and rebinds every name that refers to one of them in any loaded pst
module, so ``from .valuation import eval_sentence`` in search, proofs and
axioms is traced as well.  A span records its name, start, end, parent span
and check id; spans stay in memory, in flat arrays, until ``write``.  A span
marks a call into a module: a call from the function's own module is folded
into the caller's span (unless a metric needs it apart, see
``SPAN_OWN_CALLS``), and so is a recursive call.  Generator functions are
consumed inside their span.

Hot methods are counted, not spanned: ``EvalContext.eval_eq``/``eval_mem``
(calls and memo hits) and ``NameStore.mk_name`` (calls and new names).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict

TRACED_MODULES = ("algebra", "fidel", "names", "syntax", "valuation", "axioms", "proofs", "search")

# Functions whose calls from their own module get spans too, because a
# metric below splits that module's time between them.
SPAN_OWN_CALLS = {
    "valuation.check_valid",
    "valuation.check_leibniz",
    "valuation.enumerate_assignments",
    "valuation.closure_assignments",
    "valuation.eval_sentence",
    "names.enumerate_universe",
    "fidel.validate_n4",
    "fidel.validate_comega",
    "fidel.saturate",
    "algebra.enumerate_heyting",
    "algebra.load_algebra",
    "algebra.parse_algebra_text",
}

# metric name -> (unit, "lower"/"higher"), in report order; BENCHMARK.json lists the same
PER_LAYER = {
    "valuation.eq_calls": ("count", "lower"),
    "valuation.mem_calls": ("count", "lower"),
    "valuation.eq_table": ("entries", "lower"),
    "valuation.mem_table": ("entries", "lower"),
    "valuation.memo_hit_ratio": ("ratio", "higher"),
    "valuation.check_valid_s": ("s", "lower"),
    "valuation.leibniz_s": ("s", "lower"),
    "valuation.enum_assign_s": ("s", "lower"),
    "valuation.assignments": ("count", "lower"),
    "valuation.eval_sentence_s": ("s", "lower"),
    "valuation.eval_sentence_calls": ("count", "lower"),
    "valuation.cap_trips": ("count", "lower"),
    "axioms.check_s": ("s", "lower"),
    "axioms.checks": ("count", "higher"),
    "names.universe_s": ("s", "lower"),
    "names.universe_names": ("count", "lower"),
    "names.witness_names": ("count", "lower"),
    "names.mk_name_calls": ("count", "lower"),
    "search.search_s": ("s", "lower"),
    "search.evaluations": ("count", "lower"),
    "search.evals_per_candidate": ("ratio", "lower"),
    "search.structures": ("count", "lower"),
    "fidel.validate_s": ("s", "lower"),
    "fidel.validate_calls": ("count", "lower"),
    "fidel.accept_ratio": ("ratio", "higher"),
    "fidel.saturate_s": ("s", "lower"),
    "algebra.enumerate_s": ("s", "lower"),
    "algebra.enumerate_calls": ("count", "lower"),
    "algebra.load_s": ("s", "lower"),
    "proofs.audit_s": ("s", "lower"),
    "proofs.instances": ("count", "higher"),
    "proofs.evaluations": ("count", "lower"),
    "syntax.parse_s": ("s", "lower"),
    "syntax.parse_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


class Tracer:
    def __init__(self) -> None:
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.label = array("q")
        self.check = array("q")
        self.check_ids: list[str] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._contexts: list = []
        self._last_census: dict | None = None
        self._check_start: Counter = Counter()

    # --- spans ---------------------------------------------------------------

    def _label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _open(self, label_id: int, stack: list[int]) -> int:
        if stack:
            parent = stack[-1]
        else:  # a worker thread: caused by what its spawner has open
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            idx = len(self.start)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self.parent.append(parent)
            self.label.append(label_id)
            self.check.append(len(self.check_ids) - 1)
        stack.append(idx)
        return idx

    def _close(self, idx: int, stack: list[int]) -> None:
        self.end[idx] = time.perf_counter()
        stack.pop()

    def _in_span(self, label_id: int) -> bool:
        return any(self.label[i] == label_id for i in self._stack())

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, fn, label: str, post=None):
        label_id = self._label_id(label)
        is_gen = inspect.isgeneratorfunction(fn)
        module = label.split(".")[0]
        home = fn.__module__
        own_calls = label in SPAN_OWN_CALLS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and tracer.label[stack[-1]] == label_id:
                return fn(*args, **kwargs)
            if not own_calls and sys._getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            idx = tracer._open(label_id, stack)
            tracer.counts[label + ".calls"] += 1
            try:
                out = fn(*args, **kwargs)
                if is_gen:
                    out = iter(list(out))
                tracer.counts[label + ".ok"] += 1
                if post is not None:
                    post(out)
                return out
            except Exception as exc:
                if type(exc).__name__ == "CapExceeded" and not getattr(exc, "_traced", False):
                    exc._traced = True
                    tracer.counts[module + ".cap_trips"] += 1
                raise
            finally:
                tracer._close(idx, stack)

        return wrapper

    def install(self) -> None:
        mods = {name: sys.modules[f"pst.{name}"] for name in TRACED_MODULES}
        post = {
            "names.enumerate_universe": lambda out: self._add("names.universe_names", len(out)),
            "valuation.enumerate_assignments": lambda out: self._add("valuation.assignments", len(out)),
            "proofs.audit_soundness": self._post_audit,
            "search.search": self._post_search,
        }
        replaced = {}
        for name, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                label = f"{name}.{attr}"
                replaced[id(fn)] = (fn, self._wrap(fn, label, post.get(label)))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pst" or mod_name.startswith("pst.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):  # dispatch tables such as axioms.CHECKS
                    for key, entry in list(value.items()):
                        hit = replaced.get(id(entry))
                        if hit is not None and hit[0] is entry:
                            value[key] = hit[1]
        self._patch_classes(mods)

    def _patch_classes(self, mods) -> None:
        tracer = self
        ctx_cls = getattr(mods["valuation"], "EvalContext", None)
        if ctx_cls is not None:
            init = ctx_cls.__init__

            def ctx_init(ctx, *args, **kwargs):
                init(ctx, *args, **kwargs)
                tracer._contexts.append(ctx)

            ctx_cls.__init__ = ctx_init
            for meth, table in (("eval_eq", "_eq"), ("eval_mem", "_mem")):
                if hasattr(ctx_cls, meth):
                    setattr(ctx_cls, meth, self._count_memo(getattr(ctx_cls, meth), meth == "eval_eq", table))
        store_cls = getattr(mods["names"], "NameStore", None)
        if store_cls is not None and hasattr(store_cls, "mk_name"):
            mk_name = store_cls.mk_name
            universe = self._label_id("names.enumerate_universe")

            def counted_mk_name(store, *args, **kwargs):
                before = len(store)
                out = mk_name(store, *args, **kwargs)
                tracer.counts["names.mk_name_calls"] += 1
                if len(store) > before and not tracer._in_span(universe):
                    tracer.counts["names.witness_names"] += 1
                return out

            store_cls.mk_name = counted_mk_name

    def _count_memo(self, meth, symmetric: bool, table: str):
        counts = self.counts
        calls = "valuation.eq_calls" if symmetric else "valuation.mem_calls"

        @functools.wraps(meth)
        def counted(ctx, u, v):
            counts[calls] += 1
            memo = getattr(ctx, table, None)
            if memo is not None and ((u, v) if not symmetric or u <= v else (v, u)) in memo:
                counts["valuation.memo_hits"] += 1
            return meth(ctx, u, v)

        return counted

    def _add(self, key: str, n: int) -> None:
        self.counts[key] += n

    def _post_audit(self, report) -> None:
        self.counts["proofs.instances"] += report.n_instances
        self.counts["proofs.evaluations"] += report.n_evaluations

    def _post_search(self, out) -> None:
        census = getattr(out, "census", None)
        self._last_census = dict(census) if census is not None else None

    # --- checks --------------------------------------------------------------

    def begin_check(self, check_id: str) -> int:
        """Open the check's root span, standing for the call into cli.main."""
        self.check_ids.append(check_id)
        self._contexts = []
        self._last_census = None
        self._check_start = Counter(self.counts)
        return self._open(self._label_id("cli.main"), self._main_stack)

    def end_check(self, root: int, argv) -> None:
        self._close(root, self._main_stack)
        for attr, key in (("_eq", "valuation.eq_table"), ("_mem", "valuation.mem_table")):
            size = sum(len(getattr(ctx, attr, ())) for ctx in self._contexts)
            self.counts[key] = max(self.counts[key], size)
        self._contexts = []
        if "counter" not in argv:
            return
        delta = self.counts - self._check_start
        self.counts["search.structures"] += (
            delta["fidel.saturate.calls"] + delta["fidel.validate_n4.ok"] + delta["fidel.validate_comega.ok"]
        )
        evaluations = (self._last_census or {}).get("evaluations", 0)
        if evaluations:
            self.counts["search.evaluations"] += evaluations
            self.counts["search.exhausted_eval_sentence"] += delta["valuation.eval_sentence.calls"]

    # --- report --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per label: span duration minus the union of its children."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(i)
        out: dict[str, float] = defaultdict(float)
        start, end = self.start, self.end
        for i in range(len(start)):
            dur = end[i] - start[i]
            kids = children.get(i)
            if kids:
                spans = sorted((start[k], end[k]) for k in kids)
                lo, hi = spans[0]
                for s, e in spans[1:]:
                    if s > hi:
                        dur -= hi - lo
                        lo, hi = s, e
                    else:
                        hi = max(hi, e)
                dur -= hi - lo
            out[self.labels[self.label[i]]] += dur
        return out

    def metrics(self, overhead_s: float) -> dict[str, dict]:
        st = self.self_times()
        c = self.counts

        def secs(*labels):
            return sum(st.get(label, 0.0) for label in labels)

        def ratio(num, den):
            return num / den if den else 0.0

        axioms = [label for label in self.labels if label.startswith("axioms.check_")]
        validates = ("fidel.validate_n4", "fidel.validate_comega")
        v_calls = sum(c[f"{v}.calls"] for v in validates)
        values = {
            "valuation.eq_calls": c["valuation.eq_calls"],
            "valuation.mem_calls": c["valuation.mem_calls"],
            "valuation.eq_table": c["valuation.eq_table"],
            "valuation.mem_table": c["valuation.mem_table"],
            "valuation.memo_hit_ratio": ratio(
                c["valuation.memo_hits"], c["valuation.eq_calls"] + c["valuation.mem_calls"]
            ),
            "valuation.check_valid_s": secs("valuation.check_valid"),
            "valuation.leibniz_s": secs("valuation.check_leibniz"),
            "valuation.enum_assign_s": secs("valuation.enumerate_assignments", "valuation.closure_assignments"),
            "valuation.assignments": c["valuation.assignments"],
            "valuation.eval_sentence_s": secs("valuation.eval_sentence"),
            "valuation.eval_sentence_calls": c["valuation.eval_sentence.calls"],
            "valuation.cap_trips": c["valuation.cap_trips"],
            "axioms.check_s": secs(*axioms),
            "axioms.checks": sum(c[f"{label}.calls"] for label in axioms),
            "names.universe_s": secs("names.enumerate_universe"),
            "names.universe_names": c["names.universe_names"],
            "names.witness_names": c["names.witness_names"],
            "names.mk_name_calls": c["names.mk_name_calls"],
            "search.search_s": secs("search.search", "search.congruence_probe"),
            "search.evaluations": c["search.evaluations"],
            "search.evals_per_candidate": ratio(c["search.exhausted_eval_sentence"], c["search.evaluations"]),
            "search.structures": c["search.structures"],
            "fidel.validate_s": secs(*validates),
            "fidel.validate_calls": v_calls,
            "fidel.accept_ratio": ratio(sum(c[f"{v}.ok"] for v in validates), v_calls),
            "fidel.saturate_s": secs("fidel.saturate"),
            "algebra.enumerate_s": secs("algebra.enumerate_heyting"),
            "algebra.enumerate_calls": c["algebra.enumerate_heyting.calls"],
            "algebra.load_s": secs("algebra.load_algebra", "algebra.parse_algebra_text"),
            "proofs.audit_s": secs("proofs.audit_soundness"),
            "proofs.instances": c["proofs.instances"],
            "proofs.evaluations": c["proofs.evaluations"],
            "syntax.parse_s": secs("syntax.parse_formula", "syntax.parse_derivation_text"),
            "syntax.parse_calls": c["syntax.parse_formula.calls"] + c["syntax.parse_derivation_text.calls"],
            "cli.self_s": secs("cli.main"),
            "trace.overhead_s": overhead_s,
            "trace.spans": len(self.start),
        }
        return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}

    def write(self, stem) -> None:
        """Write the spans: ``<stem>.json`` (labels, check ids, layout) and
        ``<stem>.bin`` (the five arrays, one after another)."""
        header = {
            "count": len(self.start),
            "labels": self.labels,
            "checks": self.check_ids,
            "layout": ["start f64", "end f64", "parent i64", "label i64", "check i64"],
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(f"{stem}.bin", "wb") as fh:
            for arr in (self.start, self.end, self.parent, self.label, self.check):
                arr.tofile(fh)
