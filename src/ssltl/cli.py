"""Command-line entry point tying the pipeline together, plus the batch
benchmark harness.

Exit codes (stable contract): 0 success, 1 usage or I/O failure, 2 infeasible
instance, 3 verification failure, 4 solver error.  The ``verify`` command
exits 0/1 on the verdict.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from ssltl.errors import ModelError, SsltlError
from ssltl.hoa import load_hoa
from ssltl.ilp import (IlpConfig, SolverConfig, build_program, export_lp,
                       single_search)
from ssltl.graph import accepting_mecs, mec_decomposition
from ssltl.model import GridSpec, SsLtlSpec, generate_grid, load_model, \
    load_spec, save_model
from ssltl.product import build_product, load_policy, save_policy
from ssltl.synthesis import DEFAULT_MAX_CUT_ROUNDS, synthesize
from ssltl.verify import verify_policy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_UNVERIFIED = 3
EXIT_SOLVER = 4

OBJECTIVES = {"reward": "expected_reward", "feasibility": "feasibility"}
DYNAMICS = {"det": "deterministic", "slip": "slip"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _solver_config(args) -> SolverConfig:
    return SolverConfig(command=args.solver_cmd, timeout=args.timeout)


def _ilp_config(args) -> IlpConfig:
    return IlpConfig(acc_eps=args.acc_eps,
                     objective=OBJECTIVES[args.objective])


def _add_objective_flag(p):
    p.add_argument("--objective", choices=tuple(OBJECTIVES),
                   default="reward")


def _add_solver_flags(p):
    # the one place the package reads the solver command from the environment
    p.add_argument("--solver-cmd",
                   default=os.environ.get("SSLTL_SOLVER_CMD") or None,
                   help="command template with {lp} and {sol} placeholders "
                        "(default: $SSLTL_SOLVER_CMD, else the bundled "
                        "backend)")
    p.add_argument("--timeout", type=float, default=None,
                   help="seconds per solve: the time limit of the bundled "
                        "backend (default 60), or the wall-clock limit "
                        "after which an external command is killed")


def _add_program_flags(p):
    p.add_argument("--acc-eps", type=float, default=IlpConfig.acc_eps,
                   help="acceptance-mass threshold in (0, 1] replacing "
                        "strict > 0")
    _add_objective_flag(p)


def _add_run_flags(p):
    _add_solver_flags(p)
    p.add_argument("--max-cut-rounds", type=int,
                   default=DEFAULT_MAX_CUT_ROUNDS)
    p.add_argument("--keep-files", default=None, metavar="DIR",
                   help="keep round_<k>.lp and round_<k>.sol of every "
                        "solver round in this directory")


def cmd_gen_grid(args) -> int:
    spec = GridSpec(width=args.size, height=args.size, seed=args.seed,
                    dynamics=DYNAMICS[args.dynamics],
                    slip_main=args.slip_p, reward_mode=args.rewards)
    save_model(generate_grid(spec), args.output)
    return EXIT_OK


def _load_instance(args):
    model = load_model(args.model)
    spec = load_spec(args.spec)
    dra = load_hoa(spec.dra_source)
    return model, spec, dra


def _solver_record(sol) -> Optional[dict]:
    """What the solver returned in the last round: bound, gap, nodes, the
    seed of the search that answered, the number of searches, whether they
    split the program and whether the point came from a dive's restriction
    are null when the backend does not report them."""
    if sol is None:
        return None
    return {"status": sol.status, "objective": sol.objective,
            "bound": sol.bound, "gap": sol.gap, "nodes": sol.nodes,
            "seed": sol.seed, "searches": sol.searches, "split": sol.split,
            "dive": sol.dive}


def cmd_synth(args) -> int:
    model, spec, dra = _load_instance(args)
    result = synthesize(model, dra, spec, cfg=_ilp_config(args),
                        solver=_solver_config(args),
                        max_cut_rounds=args.max_cut_rounds,
                        keep_files=args.keep_files)
    record = {
        "model": args.model,
        "spec": args.spec,
        "status": result.status,
        "rounds": result.rounds,
        "solve_seconds": result.solve_seconds,
        "total_seconds": result.total_seconds,
        "objective": result.objective,
        "verified": result.status == "verified",
        "detail": result.detail,
        "report": result.report.to_json() if result.report else None,
        "solver": _solver_record(result.solution),
    }
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    print(json.dumps({k: record[k] for k in
                      ("status", "rounds", "objective", "solve_seconds")}))
    if result.status == "verified":
        save_policy(result.policy, args.output)
        return EXIT_OK
    if result.status == "infeasible":
        return EXIT_INFEASIBLE
    if result.status == "unverified":
        return EXIT_UNVERIFIED
    if result.status == "timeout":
        sys.stderr.write(f"solver time limit reached: {result.detail}\n")
    else:
        sys.stderr.write(f"error: {result.detail}\n")
    return EXIT_SOLVER


def cmd_verify(args) -> int:
    model, spec, dra = _load_instance(args)
    policy = load_policy(args.policy)
    report = verify_policy(model, dra, spec, policy)
    text = json.dumps(report.to_json(), indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK if report.verdict else 1


def cmd_steady(args) -> int:
    model = load_model(args.model)
    dra = load_hoa(args.dra)
    policy = load_policy(args.policy)
    report = verify_policy(model, dra, SsLtlSpec(dra_source=args.dra, ss=()),
                           policy)
    doc = {
        "product": report.to_json()["product_distribution"],
        "aggregate": [{"s": s, "p": p}
                      for s, p in report.aggregate_distribution.items()],
    }
    text = json.dumps(doc, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_export_lp(args) -> int:
    model, spec, dra = _load_instance(args)
    product = build_product(model, dra)
    amecs = accepting_mecs(mec_decomposition(product), product)
    ilp = build_program(product, amecs, spec, _ilp_config(args))
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(export_lp(ilp))
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    instance: str
    size: int
    spec: str
    status: str
    seconds: float          # solver wall time; the whole attempt if it raised
    objective: Optional[float]
    verified: bool
    detail: str = ""        # the cause of an error row; not a CSV column

    def csv_row(self):
        return [self.instance, self.size, self.spec, self.status,
                f"{self.seconds:.6f}",
                "" if self.objective is None else repr(self.objective),
                str(self.verified).lower()]


def _bench_one(task) -> RunRecord:
    grid, spec_path, cfg, solver = task
    spec = load_spec(spec_path)
    dra = load_hoa(spec.dra_source)
    model = generate_grid(grid)
    name = spec_path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    instance = f"{name}_{grid.width}x{grid.height}_seed{grid.seed}"
    t0 = time.monotonic()
    try:
        result = synthesize(model, dra, spec, cfg=cfg, solver=solver)
    except SsltlError as exc:
        return RunRecord(instance=instance, size=grid.width, spec=name,
                         status="error", seconds=time.monotonic() - t0,
                         objective=None, verified=False, detail=str(exc))
    return RunRecord(
        instance=instance, size=grid.width, spec=name, status=result.status,
        seconds=result.solve_seconds, objective=result.objective,
        verified=result.status == "verified", detail=result.detail)


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",") if x]


def cmd_bench(args) -> int:
    specs = [x for x in args.specs.split(",") if x]
    if min(args.seeds, args.workers) < 1 or not (args.sizes and specs):
        raise ModelError("bench needs --seeds and --workers of at least 1, "
                         "and at least one size and one spec")
    cfg = IlpConfig(objective=OBJECTIVES[args.objective])
    solver = _solver_config(args)
    tasks = [(GridSpec(width=size, height=size, seed=args.seed_base + i,
                       dynamics=DYNAMICS[args.dynamics]),
              spec_path, cfg, solver)
             for spec_path in specs for size in args.sizes
             for i in range(args.seeds)]

    if args.workers > 1:
        # the processes fill the CPUs already: each runs one search
        with ProcessPoolExecutor(max_workers=args.workers,
                                 initializer=single_search) as pool:
            records = list(pool.map(_bench_one, tasks))
    else:
        records = [_bench_one(t) for t in tasks]

    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instance", "size", "spec", "status", "seconds",
                         "objective", "verified"])
        for rec in records:
            writer.writerow(rec.csv_row())
        for spec_path in specs:
            name = spec_path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
            for size in args.sizes:
                times = [r.seconds for r in records
                         if r.spec == name and r.size == size]
                if not times:
                    continue
                mean = statistics.fmean(times)
                sdev = statistics.stdev(times) if len(times) > 1 else 0.0
                writer.writerow(["summary", size, name, "mean",
                                 f"{mean:.6f}", "", ""])
                writer.writerow(["summary", size, name, "stddev",
                                 f"{sdev:.6f}", "", ""])
    for rec in records:
        if rec.status == "error":
            sys.stderr.write(f"{rec.instance}: error: "
                             f"{' '.join(rec.detail.split())}\n")
    failures = [r for r in records
                if r.status in ("error", "timeout", "unverified")]
    print(f"{len(records)} runs, {len(failures)} failures -> {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssltl",
                     description="Deterministic policy synthesis for labeled "
                                 "MDPs under automaton plus steady-state "
                                 "objectives.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-grid", parents=[], help="generate a random "
                       "gridworld model file")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dynamics", choices=tuple(DYNAMICS), default="det")
    p.add_argument("--slip-p", type=float, default=0.8)
    p.add_argument("--rewards", choices=("bernoulli01", "zero"),
                   default="bernoulli01")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_grid)

    p = sub.add_parser("synth", help="synthesize and verify a policy")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("-o", "--output", default="policy.json")
    p.add_argument("--record", default=None, help="write a JSON run record")
    _add_program_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="verify a policy file independently")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("steady", help="limiting distributions of the "
                       "policy-induced product and aggregated chains")
    p.add_argument("--model", required=True)
    p.add_argument("--dra", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("export-lp", help="write the program in LP format")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("-o", "--output", required=True)
    _add_program_flags(p)
    p.set_defaults(func=cmd_export_lp)

    p = sub.add_parser("bench", help="run the gridworld benchmark suite")
    p.add_argument("--sizes", type=_int_list, default="4",
                   help="comma-separated grid sizes")
    p.add_argument("--specs", required=True,
                   help="comma-separated spec file paths")
    p.add_argument("--seeds", type=int, default=3,
                   help="instances per (spec, size)")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--dynamics", choices=tuple(DYNAMICS), default="det")
    p.add_argument("--workers", type=int, default=1)
    _add_objective_flag(p)
    _add_solver_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SsltlError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
