"""Workspace reuse: buffer recycling semantics and the zero-allocation
regression guard for the steady-state ascent path."""

import numpy as np
import pytest

from repro.core import AscentEngine, Hyperparams, Unconstrained
from repro.models.lenet import build_lenet5
from repro.nn import (Conv2D, Dense, Flatten, MaxPool2D, Network, Workspace,
                      dtypes)

#: ``Workspace.nbytes()`` of float32 LeNet-5 at batch 240 after one warm
#: ``gradient_joint``, with per-layer conv backward scratch (the N-first
#: col2im); the shared batch-last scratch must not exceed it.
LENET5_NBYTES_PER_LAYER_SCRATCH = 63_361_920


def _net(name, seed):
    rng = np.random.default_rng(seed)
    return Network([
        Conv2D(1, 3, 3, padding=1, rng=rng, name="c1"),
        MaxPool2D(2, name="mp"),
        Flatten(name="f"),
        Dense(3 * 4 * 4, 5, activation="softmax", rng=rng, name="out"),
    ], input_shape=(1, 8, 8), name=name)


def _two_conv_net(name, seed):
    """conv1 owns the larger backward scratch but runs backward second."""
    rng = np.random.default_rng(seed)
    return Network([
        Conv2D(1, 4, 5, padding=2, rng=rng, name="c1"),
        MaxPool2D(2, name="mp"),
        Conv2D(4, 6, 3, padding=1, rng=rng, name="c2"),
        Flatten(name="f"),
        Dense(6 * 4 * 4, 5, activation="softmax", rng=rng, name="out"),
    ], input_shape=(1, 8, 8), name=name)


def test_workspace_reuses_buffers_and_counts_allocations():
    ws = Workspace()
    a = ws.get("k", (4, 8), np.float64)
    assert a.shape == (4, 8) and ws.allocations == 1
    b = ws.get("k", (4, 8), np.float64)
    assert b.base is a.base or b is a
    assert ws.allocations == 1
    # Shrinking batches reuse the same storage prefix.
    c = ws.get("k", (2, 8), np.float64)
    assert ws.allocations == 1 and c.shape == (2, 8)
    # Growth or a dtype change genuinely reallocates.
    ws.get("k", (8, 8), np.float64)
    assert ws.allocations == 2
    ws.get("k", (2, 8), np.float32)
    assert ws.allocations == 3
    z = ws.zeros("z", (3, 3), np.float64)
    assert np.all(z == 0.0) and ws.allocations == 4
    assert ws.nbytes() > 0
    ws.clear()
    assert ws.nbytes() == 0


def test_forward_backward_steady_state_allocates_nothing(monkeypatch):
    """After a warmup pass, repeated forward/backward at the same batch
    size must hit the workspace for every buffer: np.empty is shimmed
    with a counter and must not fire again.  The two-conv network's
    shared backward scratch grows during warmup, when the larger c1
    follows c2."""
    x = np.random.default_rng(1).random((6, 1, 8, 8))
    for net in (_net("ws_net", 0), _two_conv_net("ws_net2", 0)):
        ws = Workspace()
        net.run(x, workspace=ws).gradient_of_class(0)  # warmup sizes pool
        warm = ws.allocations

        calls = {"empty": 0}
        real_empty = np.empty

        def counting_empty(*args, **kwargs):
            calls["empty"] += 1
            return real_empty(*args, **kwargs)

        monkeypatch.setattr(np, "empty", counting_empty)
        for _ in range(3):
            net.run(x, workspace=ws).gradient_of_class(0)
        monkeypatch.undo()
        assert ws.allocations == warm, f"{net.name}: pool grew after warmup"
        assert calls["empty"] == 0, (
            f"{net.name}: steady-state forward/backward called np.empty "
            f"{calls['empty']} times")


def test_shared_conv_scratch_grows_once_to_the_largest_layer():
    """The conv backward scratch is keyed per workspace: backward visits
    c2 first, then grows the shared buffers for the larger c1 — and
    after that first backward they never grow again."""
    net = _two_conv_net("shared", 0)
    x = np.random.default_rng(1).random((6, 1, 8, 8))
    ws = Workspace()
    tape = net.run(x, workspace=ws)
    shared = ("conv.backward", "gcols")
    assert shared not in ws._buffers
    tape.gradient_of_class(0)
    # c1's columns: (1*5*5, 8*8*6) beat c2's (4*3*3, 4*4*6).
    assert ws._buffers[shared].size == 25 * 64 * 6
    warm = ws.allocations, ws.nbytes()
    for batch in (6, 3, 6):
        net.run(x[:batch], workspace=ws).gradient_of_class(0)
        assert (ws.allocations, ws.nbytes()) == warm


def test_lenet5_workspace_no_larger_than_per_layer_scratch():
    with dtypes.default_dtype(np.float32):
        net = build_lenet5(rng=0)
    x = np.random.default_rng(0).random((240, 1, 28, 28)).astype(np.float32)
    seed = np.zeros((240, 10), dtype=np.float32)
    seed[:, 3] = 1.0
    ws = Workspace()
    net.run(x, workspace=ws).gradient_joint(seed, 0, 0.5)
    assert ws.nbytes() <= LENET5_NBYTES_PER_LAYER_SCRATCH


def test_engine_run_reuses_workspaces_across_iterations():
    with dtypes.default_dtype(np.float64):
        models = [_net("m0", 0), _net("m1", 1)]
    hp = Hyperparams(lambda1=1.0, lambda2=0.1, step=0.05, max_iterations=6)
    engine = AscentEngine(models, hp, Unconstrained(),
                          task="classification", rng=0)
    seeds = np.random.default_rng(2).random((5, 1, 8, 8))
    engine.run(seeds)
    warm = [ws.allocations for ws in engine._workspaces]
    engine.run(seeds)
    assert [ws.allocations for ws in engine._workspaces] == warm


def test_workspace_and_plain_paths_agree_bitwise():
    net = _net("agree", 4)
    x = np.random.default_rng(5).random((3, 1, 8, 8))
    plain = net.run(x)
    ws = Workspace()
    pooled = net.run(x, workspace=ws)
    np.testing.assert_array_equal(plain.outputs(), pooled.outputs())
    np.testing.assert_array_equal(plain.gradient_of_class(1),
                                  pooled.gradient_of_class(1))
    np.testing.assert_array_equal(plain.neuron_activations(),
                                  pooled.neuron_activations())


def test_engine_accepts_use_workspace_off():
    with dtypes.default_dtype(np.float64):
        models = [_net("m0", 0), _net("m1", 1)]
    hp = Hyperparams(lambda1=1.0, lambda2=0.1, step=0.05, max_iterations=4)
    seeds = np.random.default_rng(3).random((4, 1, 8, 8))
    on = AscentEngine(models, hp, Unconstrained(), task="classification",
                      rng=0).run(seeds)
    with dtypes.default_dtype(np.float64):
        models2 = [_net("m0", 0), _net("m1", 1)]
    off = AscentEngine(models2, hp, Unconstrained(), task="classification",
                       rng=0, use_workspace=False).run(seeds)
    assert len(on.tests) == len(off.tests)
    for a, b in zip(on.tests, off.tests):
        np.testing.assert_array_equal(a.x, b.x)
