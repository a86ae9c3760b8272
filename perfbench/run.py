"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ascent-mnist --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures a few rounds untraced, then installs the outside
tracer (``spans.py``) and measures traced rounds, and reports the
per-layer metrics.  Either way the run sets up ``SETUPS`` times (each
set-up ends with one full-size warm-up operation) and reports the median
as ``setup_s``, checks every output (against ``pinned.json`` too, see
:func:`check_pinned`), and prints a readable summary
followed by one JSON line.  Any failed check or operation exits with
code 1 before a result is printed.

Everything the run writes stays under ``.perfbench/`` in the checkout:
the model and dataset cache (trained on the first run, before any
timing), per-run scratch stores, and the span dump of traced runs.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import gzip
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.getcwd()
STATE_DIR = os.path.join(ROOT, ".perfbench")
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "pinned.json")
#: The seed whose first operation is re-run and checked against the
#: pinned table when the run's own seed is not in it.
CANARY_SEED = 0

SETUPS = 3
MIN_ROUNDS = 2
MIN_TRACED_ROUNDS = 2

END_TO_END = {
    "inputs_per_s": "1/s",
    "outputs_per_s": "1/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

#: Per-layer metrics, all per round of the workload's operations.
PER_LAYER = {
    "nn.forward_s": "s", "nn.backward_s": "s",
    "nn.forward_calls": "count", "nn.backward_calls": "count",
    "nn.forward_samples": "count", "nn.backward_samples": "count",
    "nn.conv.forward_s": "s", "nn.conv.backward_s": "s",
    "nn.pool.forward_s": "s", "nn.pool.backward_s": "s",
    "nn.dense.forward_s": "s", "nn.dense.backward_s": "s",
    "engine.run_s": "s", "engine.self_s": "s",
    "engine.iterations": "count", "engine.diff_ratio": "ratio",
    "engine.oracle_s": "s", "engine.constraint_s": "s",
    "coverage.update_s": "s", "coverage.objective_s": "s",
    "campaign.run_s": "s", "campaign.self_s": "s",
    "campaign.shards": "count", "campaign.payload_rebuilds": "count",
    "session.init_s": "s", "session.run_s": "s", "session.self_s": "s",
    "store.add_entry_s": "s", "store.add_entry_calls": "count",
    "store.new_ratio": "ratio", "store.commit_s": "s",
    "store.commits": "count", "store.load_s": "s",
    "farm.job_s": "s", "farm.queue_wait_s": "s", "farm.overhead_s": "s",
    "farm.requests": "count",
    "dist.manifest_s": "s", "dist.fetch_s": "s", "dist.push_s": "s",
    "wire.requests": "count", "wire.bytes_sent": "bytes",
    "wire.bytes_received": "bytes",
    "trace.unattributed_s": "s", "trace.overhead": "ratio",
}

#: The names the workloads' users know the end-to-end metrics by.
ALIASES = {
    "ascent-mnist": {"inputs_per_s": ("seeds_per_s", "seeds/s"),
                     "outputs_per_s": ("diffs_per_s", "tests/s"),
                     "op_p50_s": ("batch_p50_s", "s")},
    "farm-fuzz-pdf": {"inputs_per_s": ("seeds_per_s", "seeds/s"),
                      "outputs_per_s": ("diffs_per_s", "tests/s"),
                      "op_p50_s": ("job_p50_s", "s")},
    "corpus-sync": {"inputs_per_s": ("pull_entries_per_s", "entries/s"),
                    "outputs_per_s": ("push_entries_per_s", "entries/s"),
                    "op_p50_s": ("sync_p50_s", "s")},
}


class Tally:
    """Operations attempted and failed during the measured rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def prepare_models():
    """Build step: train and cache the zoo models the workloads load.

    Runs before any timing, so only the first run in a checkout pays it.
    """
    from repro.datasets import load_dataset
    from repro.models import get_trio
    from workloads import SCALE, ZOO_SEED
    for name in ("mnist", "pdf"):
        dataset = load_dataset(name, scale=SCALE, seed=ZOO_SEED)
        get_trio(name, scale=SCALE, seed=ZOO_SEED, dataset=dataset)


def release_memory():
    """Return freed heap to the OS, so that which allocator arena a new
    daemon thread lands in does not move the resident-set baseline."""
    gc.collect()
    ctypes.CDLL("libc.so.6").malloc_trim(0)


def reset_peak_rss():
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def peak_rss_mb():
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def check_repeat(workload, digests, k, outcome):
    from workloads import CheckFailed
    key = (outcome.digest, outcome.inputs, outcome.outputs)
    if digests.setdefault(k, key) != key:
        raise CheckFailed(
            f"{workload.name} op {k}: outcome {key} differs from an "
            f"earlier run of the same operation {digests[k]}")


def check_pinned(workload, seed, digests):
    """Compare outcomes with the table pinned from a known-good build.

    A seed in the table has every operation checked.  For any other seed
    the canary (the first operation of ``CANARY_SEED``) runs once more
    and is checked instead, so a deterministic wrong answer fails every
    run whatever its seed.
    """
    from workloads import CheckFailed
    with open(PINNED_PATH, encoding="utf-8") as handle:
        table = json.load(handle).get(workload.name)
    if table is None:
        return
    if str(seed) in table:
        got = [list(digests[k]) for k in range(workload.OPS)]
        want, what = table[str(seed)], f"seed {seed}"
    else:
        outcome = workload.run_op(0, workload.make_ops(CANARY_SEED)[0])
        got = [[outcome.digest, outcome.inputs, outcome.outputs]]
        want, what = table[str(CANARY_SEED)][:1], "the canary"
    for k, (have, pinned) in enumerate(zip(got, want)):
        if have != pinned:
            raise CheckFailed(
                f"{workload.name} {what} op {k}: outcome (digest, inputs, "
                f"outputs) {have} differs from the pinned {pinned}")


def set_up(cls, seed, scratch, digests):
    """Set the workload up ``SETUPS`` times; returns the last one and
    the median set-up time, each including one warm-up operation."""
    times = []
    for index in range(SETUPS):
        start = time.perf_counter()
        workload = cls(seed, scratch)
        try:
            workload.setup()
            warm = workload.run_op(0)
            times.append(time.perf_counter() - start)
            check_repeat(workload, digests, 0, warm)
        except BaseException:
            workload.close()
            raise
        if index + 1 < SETUPS:
            workload.close()
            release_memory()
    return workload, statistics.median(times)


def measure(workload, seconds, min_rounds, digests, tally, recorder=None):
    """Repeat whole rounds until ``seconds`` have passed and at least
    ``min_rounds`` are done; returns the rounds' outcomes."""
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        if recorder is not None:
            recorder.start_round()
        outcomes = []
        for k in range(workload.OPS):
            tally.attempted += 1
            try:
                outcome = workload.run_op(k)
                check_repeat(workload, digests, k, outcome)
            except BaseException:
                tally.failed += 1
                raise
            tally.attempted += outcome.rejected
            tally.failed += outcome.rejected
            outcomes.append(outcome)
        if recorder is not None:
            recorder.end_round(outcomes)
        rounds.append(outcomes)
    return rounds


def round_seconds(outcomes):
    return sum(o.seconds for o in outcomes)


def end_to_end(rounds, setup_s, peak_mb, tally):
    columns = list(zip(*rounds))        # one column per operation
    in_s = sum(statistics.median(o.in_s for o in col) for col in columns)
    out_s = sum(statistics.median(o.out_s for o in col) for col in columns)
    return {
        "inputs_per_s": sum(col[0].inputs for col in columns) / in_s,
        "outputs_per_s": sum(col[0].outputs for col in columns) / out_s,
        "op_p50_s": statistics.median(o.seconds for r in rounds for o in r),
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
        "success_rate": 1.0 - tally.failed / tally.attempted,
    }


class RoundRecorder:
    """Per-layer metrics of each traced round, from the tracer's spans
    and the program's own counting hooks."""

    def __init__(self, tracer):
        from repro.nn.instrumentation import PassCounter, PayloadCounter
        self.tracer = tracer
        self.passes = PassCounter()
        self.payloads = PayloadCounter()
        self.rounds = []

    def __enter__(self):
        self.tracer.install()
        self.passes.__enter__()
        self.payloads.__enter__()
        return self

    def __exit__(self, *exc):
        self.payloads.__exit__(*exc)
        self.passes.__exit__(*exc)
        self.tracer.uninstall()
        return False

    def start_round(self):
        self.mark = len(self.tracer.spans)
        self.passes.reset()
        self.payloads.reset()
        self.wire_before = self.tracer.wire_totals()

    def end_round(self, outcomes):
        from spans import layer_metrics
        wire = {kind: [now - before for now, before in
                       zip(totals, self.wire_before.get(kind, [0, 0, 0]))]
                for kind, totals in self.tracer.wire_totals().items()}
        counters = {
            "forwards": self.passes.total_forwards(),
            "backwards": self.passes.total_backwards(),
            "forward_samples": sum(self.passes.forward_samples.values()),
            "backward_samples": sum(self.passes.backward_samples.values()),
            "payload_rebuilds": self.payloads.total(),
            "wire": wire,
        }
        self.rounds.append(layer_metrics(
            self.tracer.spans[self.mark:], [o.window for o in outcomes],
            counters))


def per_layer(workload, recorder, overhead):
    """Median time per round; counts must repeat exactly across rounds."""
    from workloads import CheckFailed
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead":
            metrics[name] = overhead
            continue
        values = [r[name] for r in recorder.rounds]
        if unit == "s" or name in workload.timing_dependent:
            metrics[name] = statistics.median(values)
        elif len(set(values)) != 1:
            raise CheckFailed(
                f"{workload.name}: work counter {name} differs between "
                f"rounds of identical work: {values}")
        else:
            metrics[name] = values[0]
    return metrics


def write_trace(path, workload, seed, tracer, recorder, digests):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed,
                   "digests": {str(k): v for k, v in digests.items()},
                   "rounds": recorder.rounds,
                   "span_fields": ["sid", "name", "thread", "start", "end",
                                   "parent"],
                   "spans": [list(s[:6]) for s in tracer.spans]}, handle)
        handle.write("\n")


def run(args, scratch, tally, digests):
    from spans import Tracer
    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    prepare_models()
    if not cls.DURABLE:
        # As on a RAM-backed filesystem: writes still go through the page
        # cache, but nothing waits for the disk.
        os.fsync = lambda fd: None
    workload, setup_s = set_up(cls, args.seed, scratch, digests)
    try:
        if not args.trace:
            release_memory()
            reset_peak_rss()
            rounds = measure(workload, args.seconds, MIN_ROUNDS, digests,
                             tally)
            peak = peak_rss_mb()
            workload.final_check(digests)
            check_pinned(workload, args.seed, digests)
            return end_to_end(rounds, setup_s, peak, tally), END_TO_END
        untraced = measure(workload, args.seconds / 2, 1, digests, tally)
        tracer = Tracer()
        with RoundRecorder(tracer) as recorder:
            traced = measure(workload, args.seconds / 2, MIN_TRACED_ROUNDS,
                             digests, tally, recorder)
        workload.final_check(digests)
        check_pinned(workload, args.seed, digests)
        overhead = (statistics.median(map(round_seconds, traced))
                    / statistics.median(map(round_seconds, untraced)))
        metrics = per_layer(workload, recorder, overhead)
        write_trace(os.path.join(STATE_DIR, "trace",
                                 f"{args.workload}-seed{args.seed}.json.gz"),
                    workload, args.seed, tracer, recorder, digests)
        return metrics, PER_LAYER
    finally:
        workload.close()


def use_checkout():
    """Import the program from ``src/`` and cache models under
    ``.perfbench/``; False when the working directory has no program."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program source at {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return False
    os.environ["REPRO_CACHE_DIR"] = os.path.join(STATE_DIR, "cache")
    sys.path.insert(0, src)
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout():
        return 2
    scratch = os.path.join(STATE_DIR, "tmp",
                           f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    tally, digests = Tally(), {}
    try:
        metrics, units = run(args, scratch, tally, digests)
    except BaseException as error:     # noqa: BLE001 — report, never score
        traceback.print_exc()
        print(f"perfbench: {args.workload} seed {args.seed} FAILED after "
              f"{tally.attempted} operations ({tally.failed} failed): "
              f"{error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    aliases = ALIASES[args.workload]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={tally.attempted} failed={tally.failed} "
          f"error_rate={tally.failed / tally.attempted:.6g} "
          f"digests={','.join(d[0] for _, d in sorted(digests.items()))}")
    for name, value in metrics.items():
        alias, unit = aliases.get(name, (name, units[name]))
        print(f"{args.workload:<14} {alias:<24} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": True, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
