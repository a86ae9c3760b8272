"""Outside-in tracing: spans around calls into the repo's public entry points.

The program itself carries no tracing yet, so :class:`Tracer` records a
span at each layer boundary by replacing a class attribute with a timing
wrapper while it is installed, and restoring the original on
:meth:`Tracer.uninstall`.  Each span records its name, start, end and the
span that was open on the same thread when it began (its parent): jobs run
on the farm daemon's worker thread and sync requests on server threads, so
the open-span stack is kept per thread.  Spans stay in memory; the caller
writes them out when the run ends.

:func:`layer_metrics` folds the spans of one measured round into the
per-layer metrics.  A layer's self time is its spans' duration minus the
part covered by their child spans.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import namedtuple

Span = namedtuple("Span", "sid name thread start end parent note")


class Tracer:
    """Installs timing wrappers and collects the spans they record."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []
        #: Channel-client traffic seen through wrapped requests:
        #: ``{client class name: [requests, bytes_sent, bytes_received]}``.
        self.wire = {}
        self._wire_lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, note=None):
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``note(args, result)`` may extract a small value from the call
        (a result count, a job id) that is stored on the span.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    sid, name, threading.get_ident(), start, end, parent,
                    None if note is None else note(args, result)))

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_client(self, owner, attr, note=None):
        """Span a channel-client request and add its traffic to ``wire``."""
        original = owner.__dict__[attr]
        kind = owner.__name__
        tracer = self

        @functools.wraps(original)
        def counted(client, *args, **kwargs):
            before = (client.requests, client.bytes_sent,
                      client.bytes_received)
            try:
                return original(client, *args, **kwargs)
            finally:
                after = (client.requests, client.bytes_sent,
                         client.bytes_received)
                with tracer._wire_lock:
                    totals = tracer.wire.setdefault(kind, [0, 0, 0])
                    for i in range(3):
                        totals[i] += after[i] - before[i]

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))
        # The span wrapper goes outside the counting one.
        self.wrap(owner, attr, f"{kind}.{attr}", note=note)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap every entry point the per-layer metrics are built from."""
        from repro.core.campaign import Campaign
        from repro.core.constraints import Constraint
        from repro.core.engine import AscentEngine
        from repro.core.objectives import CoverageObjective
        from repro.core.oracle import ClassificationOracle, RegressionOracle
        from repro.corpus.session import FuzzSession
        from repro.corpus.store import CorpusStore
        from repro.coverage.neuron import NeuronCoverageTracker
        from repro.dist import sync
        from repro.dist.sync import RemoteSource
        from repro.farm.client import FarmClient, PeerClient
        from repro.farm.queue import JobQueue
        from repro.nn.conv import Conv2D
        from repro.nn.dense import Dense
        from repro.nn.network import Network
        from repro.nn.pool import MaxPool2D
        from repro.nn.tape import ForwardPass

        self.wrap(Network, "run", "Network.run")
        for attr in ("gradient_of_output", "gradient_joint",
                     "gradient_of_neuron"):
            self.wrap(ForwardPass, attr, f"ForwardPass.{attr}")
        for layer in (Conv2D, MaxPool2D, Dense):
            for attr in ("forward", "backward"):
                self.wrap(layer, attr, f"{layer.__name__}.{attr}")
        for oracle in (ClassificationOracle, RegressionOracle):
            self.wrap(oracle, "differs_from_outputs",
                      "oracle.differs_from_outputs")
        for constraint in _with_subclasses(Constraint):
            for attr in ("apply", "project"):
                if attr in constraint.__dict__:
                    self.wrap(constraint, attr, f"Constraint.{attr}")
        self.wrap(NeuronCoverageTracker, "update_from_tape",
                  "NeuronCoverageTracker.update_from_tape")
        for attr in ("pick", "gradient_from_tapes"):
            self.wrap(CoverageObjective, attr, f"CoverageObjective.{attr}")
        self.wrap(AscentEngine, "run", "AscentEngine.run",
                  note=lambda args, r: None if r is None else
                  (r.seeds_processed, r.difference_count))
        self.wrap(Campaign, "run", "Campaign.run")
        self.wrap(FuzzSession, "__init__", "FuzzSession.__init__")
        self.wrap(FuzzSession, "run", "FuzzSession.run")
        self.wrap(CorpusStore, "add_entry", "CorpusStore.add_entry",
                  note=lambda args, r: None if r is None else bool(r[1]))
        for attr in ("commit", "load_inputs", "load_input"):
            self.wrap(CorpusStore, attr, f"CorpusStore.{attr}")
        self.wrap(JobQueue, "claim", "JobQueue.claim",
                  note=lambda args, r: None if r is None else r.job_id)
        self.wrap(JobQueue, "mark_done", "JobQueue.mark_done",
                  note=lambda args, r: args[1])
        for attr in ("pull", "push"):
            self.wrap(sync, attr, f"dist.{attr}")
        for attr in ("manifest", "fetch_many"):
            self.wrap(RemoteSource, attr, f"RemoteSource.{attr}")
        self.wrap_client(FarmClient, "submit",
                         note=lambda args, r: None if r is None
                         else r["job_id"])
        self.wrap_client(FarmClient, "status")
        for attr in ("store_manifest", "store_entries", "store_push_many",
                     "store_merge_coverage"):
            self.wrap_client(PeerClient, attr)
        return self

    def wire_totals(self):
        with self._wire_lock:
            return {kind: list(v) for kind, v in self.wire.items()}


def _with_subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


# -- folding spans into per-layer metrics -------------------------------------
NN_FORWARD = {"Network.run"}
NN_BACKWARD = {"ForwardPass.gradient_of_output", "ForwardPass.gradient_joint",
               "ForwardPass.gradient_of_neuron"}
ENGINE = {"AscentEngine.run"}
ORACLE = {"oracle.differs_from_outputs"}
CONSTRAINT = {"Constraint.apply", "Constraint.project"}
COVERAGE_UPDATE = {"NeuronCoverageTracker.update_from_tape"}
COVERAGE_OBJECTIVE = {"CoverageObjective.pick",
                      "CoverageObjective.gradient_from_tapes"}
CAMPAIGN = {"Campaign.run"}
SESSION = {"FuzzSession.__init__", "FuzzSession.run"}
STORE_LOAD = {"CorpusStore.load_inputs", "CorpusStore.load_input"}
DIST_MANIFEST = {"RemoteSource.manifest", "PeerClient.store_manifest"}
DIST_FETCH = {"RemoteSource.fetch_many"}
DIST_PUSH = {"PeerClient.store_push_many"}


class _SpanSet:
    """The spans of one round, indexed for group and self-time sums."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.sid: s for s in spans}
        self.children = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, names):
        return [s for s in self.spans if s.name in names]

    def _has_ancestor_in(self, span, names):
        parent = self.by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return True
            parent = self.by_id.get(parent.parent)
        return False

    def total(self, names):
        """Wall-clock inside ``names`` spans, nested ones counted once."""
        return sum(s.end - s.start for s in self.named(names)
                   if not self._has_ancestor_in(s, names))

    def self_time(self, names):
        # Children of one span ran on its thread, one after another, so
        # their durations add up to the interval they cover.
        return sum((s.end - s.start)
                   - sum(c.end - c.start for c in self.children.get(s.sid, ()))
                   for s in self.named(names))

    def count(self, names):
        return len(self.named(names))

    def direct_children(self, span, names):
        return [c for c in self.children.get(span.sid, ()) if c.name in names]


def _uncovered(windows, spans):
    """Time inside ``windows`` that no top-level span covers."""
    intervals = sorted((s.start, s.end) for s in spans if s.parent is None)
    total = 0.0
    for lo, hi in windows:
        covered, cursor = 0.0, lo
        for start, end in intervals:
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        total += (hi - lo) - covered
    return total


def layer_metrics(spans, windows, counters):
    """Per-layer metrics of one round.

    ``spans`` are the spans recorded during the round, ``windows`` the
    ``(start, end)`` interval of each operation in it, and ``counters``
    the round's deltas of the program's own counting hooks.
    """
    s = _SpanSet(spans)
    engines = s.named(ENGINE)
    seeds = sum(e.note[0] for e in engines if e.note)
    diffs = sum(e.note[1] for e in engines if e.note)
    # The oracle judges the seed batch once, then once per ascent step.
    iterations = sum(max(0, len(s.direct_children(e, ORACLE)) - 1)
                     for e in engines)
    adds = s.named({"CorpusStore.add_entry"})
    new_entries = sum(1 for a in adds if a.note)

    claimed = {c.note: c.end for c in s.named({"JobQueue.claim"}) if c.note}
    submitted = {c.note: c.start for c in s.named({"FarmClient.submit"})
                 if c.note}
    finished = {d.note: d.start for d in s.named({"JobQueue.mark_done"})}
    job_s = sum(finished[j] - claimed[j] for j in finished if j in claimed)
    queue_wait = sum(claimed[j] - submitted[j] for j in claimed
                     if j in submitted)
    session_init = s.total({"FuzzSession.__init__"})
    session_run = s.total({"FuzzSession.run"})

    farm_wire = counters["wire"].get("FarmClient", [0, 0, 0])
    wire = [sum(v[i] for v in counters["wire"].values()) for i in range(3)]
    return {
        "nn.forward_s": s.total(NN_FORWARD),
        "nn.backward_s": s.total(NN_BACKWARD),
        "nn.forward_calls": counters["forwards"],
        "nn.backward_calls": counters["backwards"],
        "nn.forward_samples": counters["forward_samples"],
        "nn.backward_samples": counters["backward_samples"],
        "nn.conv.forward_s": s.total({"Conv2D.forward"}),
        "nn.conv.backward_s": s.total({"Conv2D.backward"}),
        "nn.pool.forward_s": s.total({"MaxPool2D.forward"}),
        "nn.pool.backward_s": s.total({"MaxPool2D.backward"}),
        "nn.dense.forward_s": s.total({"Dense.forward"}),
        "nn.dense.backward_s": s.total({"Dense.backward"}),
        "engine.run_s": s.total(ENGINE),
        "engine.self_s": s.self_time(ENGINE),
        "engine.iterations": iterations,
        "engine.diff_ratio": diffs / seeds if seeds else 0.0,
        "engine.oracle_s": s.total(ORACLE),
        "engine.constraint_s": s.total(CONSTRAINT),
        "coverage.update_s": s.total(COVERAGE_UPDATE),
        "coverage.objective_s": s.total(COVERAGE_OBJECTIVE),
        "campaign.run_s": s.total(CAMPAIGN),
        "campaign.self_s": s.self_time(CAMPAIGN),
        "campaign.shards": sum(len(s.direct_children(c, ENGINE))
                               for c in s.named(CAMPAIGN)),
        "campaign.payload_rebuilds": counters["payload_rebuilds"],
        "session.init_s": session_init,
        "session.run_s": session_run,
        "session.self_s": s.self_time(SESSION),
        "store.add_entry_s": s.total({"CorpusStore.add_entry"}),
        "store.add_entry_calls": len(adds),
        "store.new_ratio": new_entries / len(adds) if adds else 0.0,
        "store.commit_s": s.total({"CorpusStore.commit"}),
        "store.commits": s.count({"CorpusStore.commit"}),
        "store.load_s": s.total(STORE_LOAD),
        "farm.job_s": job_s,
        "farm.queue_wait_s": queue_wait,
        "farm.overhead_s": job_s - session_init - session_run,
        "farm.requests": farm_wire[0],
        "dist.manifest_s": s.total(DIST_MANIFEST),
        "dist.fetch_s": s.total(DIST_FETCH),
        "dist.push_s": s.total(DIST_PUSH),
        "wire.requests": wire[0],
        "wire.bytes_sent": wire[1],
        "wire.bytes_received": wire[2],
        "trace.unattributed_s": _uncovered(windows, spans),
    }
