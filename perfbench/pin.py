"""Write ``pinned.json``: the outcomes ``run.py`` checks every run against.

Run from the root of a checkout whose program is known to give correct
results (the commit the benchmark was defined on)::

    python3 perfbench/pin.py --seeds 64

For each pinned workload it sets the program up once and, for every seed
below ``--seeds``, runs that seed's round of operations and records each
operation's ``[digest, inputs, outputs]``.  corpus-sync is not pinned: its
operations are checked against the source corpus they copy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

PINNED = ("ascent-mnist", "farm-fuzz-pdf")


def pin(name, seeds):
    from workloads import WORKLOADS
    scratch = os.path.join(run.STATE_DIR, "tmp", f"pin-{name}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    workload = WORKLOADS[name](0, scratch)
    try:
        workload.setup()
        rows = {}
        for seed in range(seeds):
            outcomes = [workload.run_op(k, op) for k, op
                        in enumerate(workload.make_ops(seed))]
            rows[str(seed)] = [[o.digest, o.inputs, o.outputs]
                               for o in outcomes]
            print(f"{name} seed {seed}: {rows[str(seed)]}", flush=True)
        return rows
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=64)
    args = parser.parse_args(argv)
    if not run.use_checkout():
        return 2
    run.prepare_models()
    table = {name: pin(name, args.seeds) for name in PINNED}
    with open(run.PINNED_PATH, "w", encoding="utf-8") as handle:
        handle.write(dump(table))
    return 0


def dump(table):
    """JSON with one line per seed."""
    blocks = []
    for name in sorted(table):
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(row)}"
                          for seed, row in table[name].items())
        blocks.append(f" {json.dumps(name)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
