"""The benchmark's three workloads.

Each workload turns ``--seed`` into its inputs, sets the program up, and
runs *operations*: a round is the workload's fixed list of operations, and
the harness in ``run.py`` repeats rounds.  An operation returns an
:class:`Outcome` whose ``digest`` must be identical every time the same
operation runs, and the workload compares outputs against an independent
reference (the source corpus, or the float64 run in :meth:`final_check`),
raising :class:`CheckFailed` on any difference.  ``run.py`` also compares
the digests of ascent-mnist and farm-fuzz-pdf with ``pinned.json``.

Why these three, which layers each stresses and bypasses, and which
metrics each layer should move are recorded in ``DESIGN.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
import time
from collections import namedtuple

import numpy as np

#: The zoo every workload loads: smoke-scale models trained once per
#: checkout into the benchmark's cache (see ``run.prepare_models``).
SCALE = "smoke"
ZOO_SEED = 0

#: One operation's result.  ``seconds`` is the timed part, ``window`` its
#: ``(start, end)`` on ``time.perf_counter``; ``in_s`` / ``out_s`` time the
#: parts that consume ``inputs`` and produce ``outputs`` (the whole
#: operation unless it has two halves); ``rejected`` counts retried
#: submit rejections.
Outcome = namedtuple(
    "Outcome", "seconds window inputs outputs in_s out_s digest rejected")


class CheckFailed(Exception):
    """A program output differs from what the workload requires."""


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    end = time.perf_counter()
    return value, (start, end)


def _digest(*parts):
    text = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _coverage_digest(states):
    from repro.corpus.store import coverage_to_bytes
    digest = hashlib.sha256()
    for name in sorted(states):
        digest.update(name.encode("utf-8"))
        digest.update(coverage_to_bytes(states[name]))
    return digest.hexdigest()[:16]


class _Farm:
    """An in-process farm daemon behind its TCP server."""

    def __init__(self, root):
        from repro.farm import FarmDaemon
        from repro.farm.server import FarmServer
        self.daemon = FarmDaemon(root, workers=1, capacity=2).start()
        self.server = FarmServer(self.daemon)
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, name="bench-farm-server",
            daemon=True)
        self._thread.start()

    @property
    def port(self):
        return self.server.port

    def close(self):
        self.server.shutdown()
        self._thread.join()
        self.server.close()
        if not self.daemon.drain(timeout=60):
            raise RuntimeError("farm daemon threads did not stop")


# -- ascent-mnist -------------------------------------------------------------
class AscentMnist:
    """In-process ``AscentEngine.run`` on the float32 LeNet trio.

    An operation ascends one batch of ``TILES`` shuffled copies of the
    MNIST test set with the vanilla rule and the lighting constraint.
    """

    name = "ascent-mnist"
    OPS = 2
    TILES = 3
    DURABLE = True
    timing_dependent = frozenset()

    def __init__(self, seed, scratch):
        self.seed = seed

    def setup(self):
        from repro.core import PAPER_HYPERPARAMS, resolve_models
        from repro.datasets import load_dataset
        from repro.models import get_trio
        dataset = load_dataset("mnist", scale=SCALE, seed=ZOO_SEED)
        self.reference_models = get_trio("mnist", scale=SCALE,
                                         seed=ZOO_SEED, dataset=dataset)
        self.models = resolve_models(self.reference_models, dtype="float32")
        self.hp = PAPER_HYPERPARAMS["mnist"]
        self.x_test = dataset.x_test
        self.ops = self.make_ops(self.seed)

    def make_ops(self, seed):
        """The round's operations for ``seed``: ``(batch, engine seed)``."""
        ops = []
        count = self.x_test.shape[0]
        for child in np.random.SeedSequence(seed).spawn(self.OPS):
            rng = np.random.default_rng(child)
            order = np.concatenate([rng.permutation(count)
                                    for _ in range(self.TILES)])
            ops.append((self.x_test[order], int(rng.integers(2 ** 31))))
        return ops

    def _ascend(self, op, models):
        from repro.core import AscentEngine, LightingConstraint
        batch, engine_seed = op
        engine = AscentEngine(models, self.hp, LightingConstraint(),
                              rng=engine_seed)
        batch = batch.astype(models[0].dtype)
        return _timed(lambda: engine.run(batch))

    @staticmethod
    def _outcome_key(result):
        return (result.difference_count, result.seeds_exhausted,
                sorted(result.coverage.items()))

    def run_op(self, k, op=None):
        result, window = self._ascend(self.ops[k] if op is None else op,
                                      self.models)
        seconds = window[1] - window[0]
        return Outcome(seconds, window, result.seeds_processed,
                       result.difference_count, seconds, seconds,
                       _digest(self._outcome_key(result)), 0)

    def final_check(self, digests):
        """The float32 run must find the same tests as float64 does."""
        for k in range(self.OPS):
            result, _ = self._ascend(self.ops[k], self.reference_models)
            if _digest(self._outcome_key(result)) != digests[k][0]:
                raise CheckFailed(
                    f"{self.name} op {k}: float32 outcome differs from the "
                    f"float64 reference {self._outcome_key(result)}")

    def close(self):
        pass


# -- farm-fuzz-pdf ------------------------------------------------------------
class FarmFuzzPdf:
    """A closed loop of fuzz jobs through a farm daemon over TCP.

    One client, one pooled connection: each operation submits one ``fuzz``
    job on the Dense-only float64 PDF trio into a fresh tenant store and
    polls until it is done.  A round is ``OPS`` tenants, each with its own
    job seed.
    """

    name = "farm-fuzz-pdf"
    OPS = 16
    SPEC = {"kind": "fuzz", "dataset": "pdf", "rounds": 4, "seeds": 32,
            "wave_size": 8, "shard_size": 4}
    POLL = 0.01
    DURABLE = True
    #: Status polls depend on how long a job takes.
    timing_dependent = frozenset({"farm.requests", "wire.requests",
                                  "wire.bytes_sent", "wire.bytes_received"})

    def __init__(self, seed, scratch):
        self.scratch = scratch
        self.ops = self.make_ops(seed)
        self.farm = None
        self.client = None
        self._jobs = 0

    def setup(self):
        from repro.farm.client import FarmClient
        root = os.path.join(self.scratch, f"farm-{time.monotonic_ns()}")
        self.farm = _Farm(root)
        self.client = FarmClient(root)

    @classmethod
    def make_ops(cls, seed):
        """The round's operations for ``seed``: one job seed each."""
        return [int(np.random.default_rng(child).integers(2 ** 31))
                for child in np.random.SeedSequence(seed).spawn(cls.OPS)]

    def run_op(self, k, op=None):
        from repro.farm.queue import QueueSaturatedError
        self._jobs += 1
        spec = dict(self.SPEC, seed=self.ops[k] if op is None else op,
                    store=f"tenant-{self._jobs:05d}")
        rejected = 0
        start = time.perf_counter()
        while True:
            try:
                job = self.client.submit(spec)
                break
            except QueueSaturatedError as error:
                rejected += 1
                time.sleep(min(error.retry_after, 0.1))
        record = self.client.wait(job["job_id"], timeout=120.0,
                                  poll=self.POLL)
        end = time.perf_counter()
        from repro.corpus import CorpusStore
        path = self.farm.daemon.store_path(spec["store"])
        store = CorpusStore(path, create=False)
        fuzzed = sum(entry["visits"] for entry
                     in store.fuzz_state()["scheduler"]["entries"])
        digest = _digest(record["result"],
                         _coverage_digest(store.coverage_states()),
                         sorted(e["hash"] for e in store.entries()))
        seconds = end - start
        return Outcome(seconds, (start, end), fuzzed,
                       record["result"]["new_tests"], seconds, seconds,
                       digest, rejected)

    def final_check(self, digests):
        pass

    def close(self):
        if self.client is not None:
            self.client.close()
        if self.farm is not None:
            self.farm.close()


# -- corpus-sync --------------------------------------------------------------
class CorpusSync:
    """A cold pull and a cold push of one corpus over TCP via ``repro.dist``.

    One operation pulls the daemon's corpus into a fresh local mirror
    (``dist.pull`` with a ``RemoteSource``), then pushes the mirror into
    a new, empty store on the same daemon (``dist.push``).  Both stores
    are checked against the source and deleted after the operation, so
    the kernel never writes their data back to disk during the run.

    The process runs with ``fsync`` a no-op (:attr:`DURABLE` is false),
    as on a RAM-backed filesystem: each operation writes every entry
    twice, and fsync latency on a shared disk would drown the sync path
    this workload exists to time.  farm-fuzz-pdf keeps durable writes.
    """

    name = "corpus-sync"
    OPS = 1
    ENTRIES = 384
    DURABLE = False
    timing_dependent = frozenset()

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch
        self.farm = None
        self._syncs = 0

    def setup(self):
        from repro.core import PAPER_HYPERPARAMS
        from repro.corpus import CorpusStore, corpus_fingerprint
        from repro.coverage import NeuronCoverageTracker
        from repro.datasets import load_dataset
        from repro.models import get_trio
        dataset = load_dataset("mnist", scale=SCALE, seed=ZOO_SEED)
        models = get_trio("mnist", scale=SCALE, seed=ZOO_SEED,
                          dataset=dataset)
        hp = PAPER_HYPERPARAMS["mnist"]
        rng = np.random.default_rng(self.seed)
        picks = rng.integers(0, dataset.x_test.shape[0], self.ENTRIES)
        inputs = np.clip(dataset.x_test[picks]
                         + rng.normal(0.0, 0.05, (self.ENTRIES,)
                                      + dataset.x_test.shape[1:]), 0.0, 1.0)

        self.root = os.path.join(self.scratch, f"farm-{time.monotonic_ns()}")
        self.farm = _Farm(self.root)
        source = CorpusStore(self.farm.daemon.store_path("corpus"))
        source.bind_config(corpus_fingerprint(models, hp, dataset.task))
        trackers = [NeuronCoverageTracker(m, threshold=hp.threshold)
                    for m in models]
        for tracker in trackers:
            tracker.update(inputs)
        for i, x in enumerate(inputs):
            kind = "seed" if i % 2 == 0 else "test"
            source.add_entry(x, kind, origin=int(picks[i]))
        source.commit(coverage_states={m.name: t.state_dict()
                                       for m, t in zip(models, trackers)})
        self.source_hashes = {e["hash"] for e in source.entries()}
        self.source_coverage = CorpusStore(
            source.path, create=False).coverage_states()

    def _check_replica(self, what, path):
        from repro.corpus import CorpusStore
        from repro.corpus.store import coverage_states_equal
        replica = CorpusStore(path, create=False)
        if {e["hash"] for e in replica.entries()} != self.source_hashes:
            raise CheckFailed(f"{self.name}: the {what} holds other entries "
                              "than the source")
        if not coverage_states_equal(replica.coverage_states(),
                                     self.source_coverage):
            raise CheckFailed(f"{self.name}: the {what}'s coverage differs "
                              "from the source's")

    def run_op(self, k):
        from repro.corpus import CorpusStore
        from repro.dist import sync
        self._syncs += 1
        mirror_path = os.path.join(self.root, f"mirror-{self._syncs:05d}")
        pushed_name = f"pushed-{self._syncs:05d}"
        pushed_path = self.farm.daemon.store_path(pushed_name)
        mirror = CorpusStore(mirror_path)
        CorpusStore(pushed_path)            # push needs an existing store
        source = sync.RemoteSource("127.0.0.1", self.farm.port, "corpus")
        try:
            added, pull_window = _timed(lambda: sync.pull(mirror, source))
        finally:
            source.client.close()
        pushed, push_window = _timed(lambda: sync.push(
            mirror_path, "127.0.0.1", self.farm.port, pushed_name))
        if added != self.ENTRIES or pushed != self.ENTRIES:
            raise CheckFailed(f"{self.name}: pulled {added} and pushed "
                              f"{pushed} of {self.ENTRIES} entries")
        self._check_replica("mirror", mirror_path)
        self._check_replica("pushed store", pushed_path)
        shutil.rmtree(mirror_path)
        shutil.rmtree(pushed_path)
        pull_s = pull_window[1] - pull_window[0]
        push_s = push_window[1] - push_window[0]
        return Outcome(pull_s + push_s, (pull_window[0], push_window[1]),
                       added, pushed, pull_s, push_s,
                       _digest(sorted(self.source_hashes),
                               _coverage_digest(self.source_coverage)), 0)

    def final_check(self, digests):
        pass

    def close(self):
        if self.farm is not None:
            self.farm.close()


WORKLOADS = {w.name: w for w in (AscentMnist, FarmFuzzPdf, CorpusSync)}
