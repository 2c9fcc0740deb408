#!/usr/bin/env python3
"""Closed-loop synthesis benchmark with a single caller.

One instance at a time goes through ``ssltl.synthesis.synthesize(...,
solver=None)``, the default path users get, until ``--seconds`` are used up
in whole passes over the workload.  The package under ``src/`` of this
checkout is measured; the solver child imports it from there too.

    python3 perfbench/run.py --workload small-feas --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see spans.py) and writes its spans under
``perfbench/out/``.  Human-readable lines come first; the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = (3, 2)        # before the first pass, after every pass
OBJECTIVE_TOL = 1e-6


def pin_checkout() -> None:
    """Import ssltl from this checkout, in this process and in every solver
    child, and keep the solver's scratch files inside the checkout."""
    src = ROOT / "src"
    if not (src / "ssltl" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ssltl package under {src}")
    sys.path.insert(0, str(src))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(src) + (os.pathsep + old if old else "")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)


def environment() -> tuple:
    """(record, reasons the run is invalid).  Versions are read from package
    metadata: importing scipy here would hide from ``peak_rss_mb`` a change
    that moves the solver into this process."""
    from importlib.metadata import version

    import ssltl
    from ssltl.ilp import default_solver_command

    invalid = []
    if os.environ.get("SSLTL_SOLVER_CMD"):
        invalid.append("SSLTL_SOLVER_CMD is set")
    invalid += [f"{b} is on PATH" for b in ("highs", "cbc") if shutil.which(b)]
    if not Path(ssltl.__file__).resolve().is_relative_to(ROOT / "src"):
        invalid.append(f"ssltl imported from {ssltl.__file__}")
    record = {
        "ssltl": ssltl.__file__,
        "solver_command": default_solver_command(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "valid": not invalid,
    }
    return record, invalid


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Fresh-process set-up: import the ssltl modules the run uses and build
    every instance of the workload."""
    t0 = time.perf_counter()
    import ssltl.synthesis  # noqa: F401
    import ssltl.verify  # noqa: F401
    workloads.build(workload, seed, ROOT)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload: str, seed: int, times: list, count: int) -> None:
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# Passes and the correctness gate
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    inst: workloads.Instance
    run: workloads.Runnable
    result: object              # SynthesisResult, None if it raised
    error: Optional[str]
    seconds: float
    failure: Optional[str] = None

    @property
    def proven(self) -> bool:
        if self.result is None:
            return False
        sol = self.result.solution
        # No solution means build_program proved infeasibility structurally.
        return sol is None or sol.status in ("optimal", "infeasible")


def run_pass(runnables, tracer=None, pass_no=0) -> tuple:
    from ssltl.ilp import IlpConfig
    from ssltl.synthesis import synthesize

    outcomes = []
    t_pass = time.perf_counter()
    for r in runnables:
        cfg = IlpConfig(objective=r.inst.objective)
        args = (r.model, r.dra, r.spec)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                res = synthesize(*args, cfg=cfg, solver=None)
            else:
                res = tracer.call(r.inst.name, pass_no, synthesize, *args,
                                  cfg=cfg, solver=None)
            err = None
        except Exception as exc:  # an escaping exception is a failed instance
            res, err = None, f"raised {type(exc).__name__}: {exc}"
        outcomes.append(Outcome(r.inst, r, res, err, time.perf_counter() - t0))
    wall = time.perf_counter() - t_pass
    for o in outcomes:
        o.failure = check(o)
    return wall, outcomes


def long_run_reward(run: workloads.Runnable, policy, report) -> float:
    """Expected reward per step of ``policy`` from the limiting distribution
    the verifier computed, independent of the solver's values."""
    m = run.model
    total = 0.0
    for (s, q), mass in report.product_distribution.items():
        a = policy.choice[(s, q)]
        total += mass * sum(p * m.reward_value(s, a, t)
                            for t, p in m.trans[(s, a)].items())
    return total


def check(o: Outcome) -> Optional[str]:
    """Why the outcome fails the gate, or None."""
    from ssltl.verify import verify_policy

    if o.error is not None:
        return o.error[:300]
    res = o.result
    if res.status != o.inst.expect:
        return (f"status {res.status!r}, expected {o.inst.expect!r}"
                + (f" ({res.detail[:200]})" if res.detail else ""))
    if res.status != "verified":
        return None
    # Independent re-check on a freshly built product.
    report = verify_policy(o.run.model, o.run.dra, o.run.spec, res.policy)
    if not report.verdict:
        return "returned policy fails re-verification"
    if o.inst.objective != "expected_reward":
        return None
    reward = long_run_reward(o.run, res.policy, report)
    if abs(reward - res.objective) > OBJECTIVE_TOL:
        return (f"objective {res.objective!r}, but the policy's long-run "
                f"reward is {reward!r}")
    # A verified policy reaching the recorded optimum exists, so a proven
    # optimum below it is wrong.  One above it comes with a policy that has
    # just passed both checks, so it is a better answer, not a failure.
    if (o.inst.optimum is not None and o.proven
            and res.objective < o.inst.optimum - OBJECTIVE_TOL):
        return (f"proven optimum {res.objective!r} is below the recorded "
                f"{o.inst.optimum!r}")
    return None


# ---------------------------------------------------------------------------
# Solver replay (traced runs)
# ---------------------------------------------------------------------------

def replay_programs(solve_spans) -> list:
    """Re-solve the program of every ``synthesis.solve`` span that returned,
    in this process, through the same LP text and HiGHS call the bundled
    backend makes, with its time limit.  One record per program."""
    from ssltl.ilp import default_solver_command, export_lp
    from ssltl.milp_shim import parse_lp, solve_lp_problem

    limit = inspect.signature(default_solver_command).parameters[
        "solve_time_limit"].default
    records = []
    for sp in solve_spans:
        if "model" not in sp.meta:      # the solve raised
            continue
        text = export_lp(sp.meta["model"])
        t0 = time.perf_counter()
        prob = parse_lp(text)
        t1 = time.perf_counter()
        res, _ = solve_lp_problem(prob, time_limit=limit)
        t2 = time.perf_counter()
        gap = getattr(res, "mip_gap", None)
        records.append({
            "instance": sp.instance,
            "lp_bytes": len(text.encode()),
            "parse_lp_s": t1 - t0,
            "highs_s": t2 - t1,
            "nodes": int(getattr(res, "mip_node_count", 0) or 0),
            "gap": float(gap) if gap is not None and gap == gap else 0.0,
            "limit_hit": res.status == 1,
        })
    return records


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def instance_medians(outcomes) -> list:
    """Each instance's median time over the passes.  Built from these, the
    metrics do not count whole a slow stretch of machine time that falls
    into one pass."""
    by_name: dict = {}
    for o in outcomes:
        by_name.setdefault(o.inst.name, []).append(o.seconds)
    return [statistics.median(v) for v in by_name.values()]


def end_to_end(args, runnables) -> tuple:
    """Whole passes while the budget lasts.  Set-up is measured in fresh
    processes between the passes, so that it samples the same stretch of
    machine time as they do."""
    setup, walls, outcomes = [], [], []
    measure_setup(args.workload, args.seed, setup, SETUP_PROBES[0])
    t0 = time.perf_counter()
    while True:
        wall, outs = run_pass(runnables)
        walls.append(wall)
        outcomes += outs
        measure_setup(args.workload, args.seed, setup, SETUP_PROBES[1])
        if time.perf_counter() - t0 + max(walls) > args.seconds:
            break
    failed = sum(1 for o in outcomes if o.failure)
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(instance_medians(outcomes)),
        "verdict_s.p50": statistics.median(o.seconds for o in outcomes),
        "ok_ratio": 1.0 - failed / len(outcomes),
        "proven_ratio": sum(o.proven for o in outcomes) / len(outcomes),
        "peak_rss_mb": kib / 1024.0,
    }
    print(f"passes: {len(walls)} of {len(runnables)} instances, walls "
          + ", ".join(f"{w:.3f}" for w in walls) + " s")
    return metrics, outcomes


def traced(args, runnables) -> tuple:
    """Pairs of untraced and traced passes while the budget lasts; the
    per-layer metrics come from the first traced pass."""
    walls = {False: [], True: []}
    outcomes = []
    first = None
    t0 = time.perf_counter()
    while True:
        for on in (False, True):
            tracer = spans.Tracer() if on else None
            if tracer is not None:
                missing = tracer.install()
            try:
                wall, outs = run_pass(runnables, tracer, len(walls[on]))
            finally:
                if tracer is not None:
                    tracer.uninstall()
            walls[on].append(wall)
            outcomes += outs
            if on and first is None:
                first = (tracer.spans, wall, outs, missing)
        if (time.perf_counter() - t0
                + max(walls[False]) + max(walls[True]) > args.seconds):
            break
    trace_spans, wall_traced, outs, missing = first
    replay = replay_programs([sp for sp in trace_spans
                              if sp.name == "synthesis.solve"])
    metrics = spans.layer_metrics(trace_spans, replay, wall_traced, outs)
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]))
    print_self_times(trace_spans, wall_traced, missing)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "wall_s": wall_traced, "replay": replay,
                                "spans": spans.spans_to_json(trace_spans)}))
    print(f"spans: {path.relative_to(ROOT)}")
    return metrics, outcomes


def print_instances(outcomes) -> None:
    by_name: dict = {}
    for o in outcomes:
        by_name.setdefault(o.inst.name, []).append(o)
    print(f"{'instance':<28} {'status':<11} {'solver':<10} {'rounds':>6} "
          f"{'median s':>9}")
    for name, runs in by_name.items():
        res = runs[0].result
        sol = res.solution.status if res is not None and res.solution else "-"
        print(f"{name:<28} {res.status if res else 'raised':<11} {sol:<10} "
              f"{res.rounds if res else '-':>6} "
              f"{statistics.median(o.seconds for o in runs):>9.3f}")


def print_self_times(trace_spans, wall, missing) -> None:
    rows = spans.self_time_table(trace_spans)
    attributed = sum(s for _, _, s in rows)
    print(f"{'layer (self time)':<34} {'calls':>6} {'seconds':>10} {'share':>7}")
    for name, calls, secs in rows + [("(unattributed)", 0, wall - attributed)]:
        print(f"{name:<34} {calls:>6} {secs:>10.4f} {secs / wall:>7.1%}")
    print(f"{'traced wall_s':<34} {'':>6} {wall:>10.4f}")
    if missing:
        print("not traced (attribute missing): " + ", ".join(missing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_checkout()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    env, invalid = environment()
    print("environment: " + json.dumps(env))
    runnables = workloads.build(args.workload, args.seed, ROOT)
    run_pass([workloads.load(workloads.WARMUP, ROOT)])

    mode = traced if args.trace else end_to_end
    metrics, outcomes = mode(args, runnables)
    print_instances(outcomes)

    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units.get(name, '')}")
    failures = [(o.inst.name, o.failure) for o in outcomes if o.failure]
    print(f"correctness gate: {len(outcomes) - len(failures)} of "
          f"{len(outcomes)} instance runs pass"
          + ("" if not invalid else "; run invalid: " + "; ".join(invalid)))
    for name, why in failures:
        print(f"  FAIL {name}: {why}")
    print(json.dumps({
        "correct": not failures and not invalid,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
