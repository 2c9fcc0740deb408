"""Spans around the pipeline's layers, recorded from outside the package.

``Tracer.install`` replaces module attributes that the pipeline looks up at
call time (``ssltl.synthesis.solve`` and so on) with wrappers that record a
span per call: name, start, end, parent and instance id.  Spans are kept in
memory; the caller writes them out at the end.  A wrapper records nothing
outside an instance's root span, so the benchmark's own checks stay untraced.
A call that raises keeps its span, with an empty ``meta``.

``self_times`` and ``layer_metrics`` turn the spans of one pass into the
per-layer metrics.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Optional

ROOT_NAME = "synthesis.synthesize"

# (module, attribute): the call sites the pipeline resolves through a module
# global, so replacing the attribute reaches every call.
WRAPPED = (
    ("ssltl.synthesis", "build_product"),
    ("ssltl.synthesis", "mec_decomposition"),
    ("ssltl.synthesis", "accepting_mecs"),
    ("ssltl.synthesis", "build_program"),
    ("ssltl.synthesis", "solve"),
    ("ssltl.synthesis", "extract_policy"),
    ("ssltl.synthesis", "verify_policy"),
    ("ssltl.synthesis", "_rejection_cuts"),
    ("ssltl.ilp", "write_lp"),
    ("ssltl.ilp", "parse_solution_text"),
    ("ssltl.verify", "induce_chain"),
    ("ssltl.verify", "bsccs"),
    ("ssltl.verify", "limiting_distribution"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]       # index into the span list, None for a root
    instance: str
    pass_no: int
    meta: dict = field(default_factory=dict)


def _annotate(name: str, args, out) -> dict:
    """Counts read off a call's arguments and result, after its span closed."""
    if name == "synthesis.build_product":
        return {"states": len(out.states), "edges": len(out.edges)}
    if name == "synthesis.accepting_mecs":
        return {"amecs": len(out)}
    if name == "synthesis.build_program":
        return {"rows": len(out.rows), "cols": len(out.variables),
                "binaries": sum(1 for v in out.variables if v.binary)}
    if name == "synthesis.solve":
        # The program object is kept for the solver replay, not serialised.
        return {"status": out.status, "model": args[0]}
    if name == "synthesis.verify_policy":
        return {"verdict": bool(out.verdict),
                "rabin": all(out.rabin_ok), "unichain": bool(out.unichain),
                "ss": all(r.ok for r in out.ss_results)}
    if name == "synthesis._rejection_cuts":
        return {"rows": len(out)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self._instance = ""
        self._pass_no = 0

    # -- installation ------------------------------------------------------

    def install(self) -> list:
        """Wrap every attribute of WRAPPED that exists; returns the names of
        those that do not (a later version of the package may drop one)."""
        missing = []
        for mod_name, attr in WRAPPED:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(span_name(mod_name, attr))
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name(mod_name, attr), fn))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.spans[index].meta = _annotate(name, args, out)
            return out
        traced.__wrapped__ = fn
        return traced

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._instance, self._pass_no))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def call(self, instance: str, pass_no: int, fn, *args, **kwargs):
        """Run ``fn`` as the root span of one instance."""
        self._instance, self._pass_no = instance, pass_no
        index = self._open(ROOT_NAME)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict = {}
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(i)
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        reach = sp.start
        for lo, hi in sorted((spans[c].start, spans[c].end)
                             for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(sp.end - sp.start - covered)
    return out


def layer_metrics(spans, replay: list, wall_traced: float, outcomes) -> dict:
    """Per-layer metrics of one traced pass.

    ``spans`` are that pass's spans, ``replay`` the solver replay records of
    its programs (see run.replay_programs), ``outcomes`` its results.
    ``trace.overhead_s`` needs untraced passes and is added by the caller."""
    selfs = self_times(spans)
    by_name: dict = {}
    for sp, st in zip(spans, selfs):
        by_name.setdefault(sp.name, []).append((sp, st))

    def self_s(*names):
        return sum(st for n in names for _, st in by_name.get(n, ()))

    def dur_s(name):
        return sum(sp.end - sp.start for sp, _ in by_name.get(name, ()))

    def count(name, key=None):
        entries = by_name.get(name, ())
        if key is None:
            return len(entries)
        return sum(sp.meta.get(key, 0) for sp, _ in entries)

    verifies = [sp.meta for sp, _ in by_name.get("synthesis.verify_policy", ())]
    solve_calls = count("synthesis.solve")
    accepted = sum(1 for v in verifies if v.get("verdict"))
    external = self_s("synthesis.solve")
    rewards = [o.result.objective for o in outcomes
               if o.inst.objective == "expected_reward"
               and o.result is not None and o.result.objective is not None]
    unproven = sum(1 for o in outcomes if not o.proven)
    attributed = sum(selfs)
    parse_lp = sum(r["parse_lp_s"] for r in replay)
    highs = sum(r["highs_s"] for r in replay)
    return {
        "product.build_s": self_s("synthesis.build_product"),
        "product.states": count("synthesis.build_product", "states"),
        "product.edges": count("synthesis.build_product", "edges"),
        "product.induce_s": self_s("verify.induce_chain"),
        "graph.mec_s": self_s("synthesis.mec_decomposition",
                              "synthesis.accepting_mecs"),
        "graph.amecs": count("synthesis.accepting_mecs", "amecs"),
        "graph.bscc_s": self_s("verify.bsccs"),
        "ilp.build_s": self_s("synthesis.build_program"),
        "ilp.rows": count("synthesis.build_program", "rows"),
        "ilp.cols": count("synthesis.build_program", "cols"),
        "ilp.binaries": count("synthesis.build_program", "binaries"),
        "ilp.solve_s": dur_s("synthesis.solve"),
        "ilp.solve_calls": solve_calls,
        "ilp.lp_write_s": self_s("ilp.write_lp"),
        "ilp.lp_bytes": sum(r["lp_bytes"] for r in replay),
        "ilp.external_s": external,
        "ilp.sol_parse_s": self_s("ilp.parse_solution_text"),
        "ilp.extract_s": self_s("synthesis.extract_policy"),
        "milp_shim.parse_lp_s": parse_lp,
        "milp_shim.highs_s": highs,
        "milp_shim.nodes": sum(r["nodes"] for r in replay),
        "milp_shim.gap_max": max((r["gap"] for r in replay), default=0.0),
        "milp_shim.limit_hits": sum(1 for r in replay if r["limit_hit"]),
        "milp_shim.launch_s": external - parse_lp - highs,
        "verify.verify_s": self_s("synthesis.verify_policy"),
        "verify.calls": len(verifies),
        "verify.rejected": len(verifies) - accepted,
        "verify.reject_rabin": sum(1 for v in verifies
                                   if not v.get("rabin", True)),
        "verify.reject_unichain": sum(1 for v in verifies
                                      if not v.get("unichain", True)),
        "verify.reject_ss": sum(1 for v in verifies if not v.get("ss", True)),
        "chain.limiting_s": self_s("verify.limiting_distribution"),
        "synthesis.rounds": sum(o.result.rounds for o in outcomes
                                if o.result is not None),
        "synthesis.accept_ratio": accepted / solve_calls if solve_calls else 0.0,
        "synthesis.cut_rows": count("synthesis._rejection_cuts", "rows"),
        "synthesis.cuts_s": self_s("synthesis._rejection_cuts"),
        "synthesis.self_s": self_s(ROOT_NAME),
        "synthesis.objective_mean": (sum(rewards) / len(rewards)
                                     if rewards else 0.0),
        "synthesis.unproven_ratio": unproven / len(outcomes),
        "trace.wall_s": wall_traced,
        "trace.unattributed_s": wall_traced - attributed,
    }


def self_time_table(spans) -> list:
    """(span name, calls, self seconds) rows, largest first."""
    totals: dict = {}
    for sp, st in zip(spans, self_times(spans)):
        calls, secs = totals.get(sp.name, (0, 0.0))
        totals[sp.name] = (calls + 1, secs + st)
    return sorted(((n, c, s) for n, (c, s) in totals.items()),
                  key=lambda row: -row[2])


def spans_to_json(spans) -> list:
    return [{"name": sp.name, "start": sp.start, "end": sp.end,
             "parent": sp.parent, "instance": sp.instance,
             "pass": sp.pass_no,
             "meta": {k: v for k, v in sp.meta.items() if k != "model"}}
            for sp in spans]
