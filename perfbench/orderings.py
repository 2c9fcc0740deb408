#!/usr/bin/env python3
"""The large-feas and bnb-hard instances under a few fixed state orderings.

``run.py`` solves every instance in one state order, the model's own.  The
time HiGHS takes depends on the order of rows and columns, and the product
and the program follow the order of the model's states.  Over the five
orderings this script uses, one ``synthesize`` call took 1.2 to 4.7 s on
the 8x8 fixture, 2.9 to 13.3 s on the 11x11 grid and 4.2 to 10.0 s on the
reward plateau, on a 2-core machine (results/orderings.json).  A change
that reorders the program's rows or columns therefore moves ``wall_s`` on
large-feas and bnb-hard by luck as well.
Run this script on the parent and on the change, and compare the
per-ordering times, before claiming a change on those two workloads.

    python3 perfbench/orderings.py --out perfbench/results/orderings.json

Ordering 0 is the model's own; ordering k > 0 permutes the states with
``numpy.random.default_rng(k)``.  Each program is solved once, one after
another, through ``synthesize(..., solver=None)`` and the correctness gate of
run.py.  It takes about three minutes on a 2-core machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path

import numpy as np

import run
import workloads

ORDERINGS = 5
WORKLOADS = ("large-feas", "bnb-hard")


def reorder(r: workloads.Runnable, k: int) -> workloads.Runnable:
    if k == 0:
        return r
    states = r.model.states
    perm = np.random.default_rng(k).permutation(len(states))
    model = dataclasses.replace(r.model,
                                states=tuple(states[i] for i in perm))
    return dataclasses.replace(r, model=model)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="write the times as JSON here")
    args = parser.parse_args(argv)

    run.pin_checkout()
    run.run_pass([workloads.load(workloads.WARMUP, run.ROOT)])
    result, failures = {}, []
    for name in WORKLOADS:
        print(f"=== {name}: seconds per ordering 0-{ORDERINGS - 1} ===")
        result[name] = {}
        for inst in workloads.WORKLOADS[name]:
            base = workloads.load(inst, run.ROOT)
            _, outs = run.run_pass([reorder(base, k)
                                    for k in range(ORDERINGS)])
            secs = [o.seconds for o in outs]
            result[name][inst.name] = secs
            failures += [(inst.name, k, o.failure)
                         for k, o in enumerate(outs) if o.failure]
            print(f"{inst.name:<24} " + " ".join(f"{s:7.2f}" for s in secs)
                  + f"   median {statistics.median(secs):6.2f}")
    for inst, k, why in failures:
        print(f"FAIL {inst} ordering {k}: {why}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"orderings": ORDERINGS,
                                        "seconds": result}, indent=1) + "\n")
        print(f"times: {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
