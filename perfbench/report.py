#!/usr/bin/env python3
"""Run every workload and print one report.

For each workload: one untraced run per seed (end-to-end metrics with their
median, quartiles and spread against the bound in BENCHMARK.json, and the
correctness gate of every run), then one traced run on the first seed
(per-layer metrics, self-time table with the unattributed remainder, the
pre-solve phases and the solver launch cost per round).

    python3 perfbench/report.py --seeds 1-10 --out perfbench/results/baseline.json

Runs go one after another; a run of 36 s takes about 40 s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = DOC["run_seconds"]
PRESOLVE = ("synthesis.build_product", "synthesis.mec_decomposition",
            "synthesis.accepting_mecs", "synthesis.build_program")


def seeds_arg(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def spread(values) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def presolve(spans_file: Path) -> dict:
    """Per instance: self seconds of product, MEC and program build, plus
    the first round's LP write (traced) and LP parse (replayed)."""
    doc = json.loads(spans_file.read_text())
    sp = [spans.Span(s["name"], s["start"], s["end"], s["parent"],
                     s["instance"], s["pass"]) for s in doc["spans"]]
    out: dict = {}
    for s, self_s in zip(sp, spans.self_times(sp)):
        row = out.setdefault(s.instance, {"phases_s": 0.0})
        if s.name in PRESOLVE:
            row["phases_s"] += self_s
        elif s.name == "ilp.write_lp" and "lp_write_s" not in row:
            row["lp_write_s"] = self_s
    for r in doc["replay"]:
        out[r["instance"]].setdefault("lp_parse_s", r["parse_lp_s"])
    for row in out.values():
        row["total_s"] = sum(row.values())
    return out


def report_workload(name: str, seeds: list) -> dict:
    bounds = {m["name"]: m for m in DOC["end_to_end"]}
    print(f"\n=== {name}: {len(seeds)} untraced run(s) of {SECONDS} s ===")
    runs, gates = [], []
    for seed in seeds:
        lines, out = run(name, seed, SECONDS, 0)
        runs.append(out["metrics"])
        gates.append({"seed": seed, "correct": out["correct"],
                      "attempted": out["attempted"], "failed": out["failed"],
                      "failures": [ln.strip() for ln in lines
                                   if ln.strip().startswith("FAIL ")]})
        print(f"seed {seed:>3}: " + "  ".join(
            f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
            + f"  gate {out['attempted'] - out['failed']}/{out['attempted']}")
        for failure in gates[-1]["failures"]:
            print("          " + failure)
    summary = {}
    print(f"{'metric':<16} {'unit':<6} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for metric, meta in bounds.items():
        st = spread([r[metric]["value"] for r in runs])
        st["bound"] = meta["bound"]
        summary[metric] = st
        flag = ("  > bound" if st["spread"] > meta["bound"] else
                "  > bound/3" if st["spread"] > meta["bound"] / 3 else "")
        print(f"{metric:<16} {meta['unit']:<6} {st['median']:>10.4f} "
              f"{st['q1']:>10.4f} {st['q3']:>10.4f} {st['spread']:>7.3f} "
              f"{meta['bound']:>6}{flag}")
    print(f"correctness gate: {sum(g['correct'] for g in gates)} of "
          f"{len(gates)} runs correct")

    print(f"\n--- {name}: traced run, seed {seeds[0]} ---")
    lines, out = run(name, seeds[0], SECONDS, 1)
    print("\n".join(ln for ln in lines if not ln.startswith("environment")))
    layer = {k: v["value"] for k, v in out["metrics"].items()}
    pre = presolve(HERE / "out" / f"spans-{name}-seed{seeds[0]}.json")
    print(f"{'pre-solve (first round)':<28} {'phases':>8} {'lp write':>9} "
          f"{'lp parse':>9} {'total':>8}")
    for inst, row in pre.items():
        print(f"{inst:<28} {row['phases_s']:>8.4f} "
              f"{row.get('lp_write_s', 0.0):>9.4f} "
              f"{row.get('lp_parse_s', 0.0):>9.4f} {row['total_s']:>8.4f}")
    rounds = layer["ilp.solve_calls"]
    launch = layer["milp_shim.launch_s"] / rounds if rounds else 0.0
    print(f"solver launch per round (derived): {launch:.3f} s over "
          f"{rounds:.0f} rounds")
    return {"runs": runs, "gate": gates, "summary": summary,
            "trace": {"seed": seeds[0], "metrics": layer, "presolve": pre,
                      "launch_s_per_round": launch}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, default=[1],
                        help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the report as JSON here")
    args = parser.parse_args(argv)

    env_line = run("smoke", 0, 0, 0)[0][0]
    print(env_line)
    env = json.loads(env_line.partition(": ")[2])
    # Keep the record free of this machine's paths.
    env["ssltl"] = str(Path(env["ssltl"]).relative_to(ROOT))
    env["solver_command"] = env["solver_command"].replace(
        sys.executable, "python3")
    result = {"environment": env, "seconds": SECONDS, "seeds": args.seeds,
              "workloads": {}}
    for w in DOC["workloads"]:
        result["workloads"][w["name"]] = report_workload(w["name"], args.seeds)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"\nreport: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
