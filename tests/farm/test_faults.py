"""The fault-injection rig itself: plans, countdowns, kill semantics,
and the point registry."""

import os
import re
import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.utils import faults
from repro.utils.faults import (FAULT_POINTS, InjectedFault, KILL_EXIT_CODE,
                                fault_point, inject, reset_faults)

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                   "..", "..", "src"))


@pytest.fixture(autouse=True)
def _clean_plan(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    reset_faults()
    yield
    reset_faults()


def test_unarmed_points_are_noops():
    for _ in range(100):
        fault_point("farm.wave")


def test_countdown_fires_on_nth_hit():
    with inject("farm.wave", countdown=3) as arm:
        fault_point("farm.wave")
        fault_point("farm.wave")
        assert arm["remaining"] == 1
        with pytest.raises(InjectedFault):
            fault_point("farm.wave")
        assert arm["remaining"] == 0
        fault_point("farm.wave")  # exhausted arms never fire again


def test_points_are_independent():
    with inject("dist.sync.mid", countdown=1):
        fault_point("dist.pull.entry")    # different point: untouched
        with pytest.raises(InjectedFault):
            fault_point("dist.sync.mid")


def test_env_plan_parsing(monkeypatch):
    monkeypatch.setenv(faults.ENV_VAR,
                       "farm.wave:2:raise, corpus.commit.mid:1:raise")
    reset_faults()
    fault_point("farm.wave")
    with pytest.raises(InjectedFault):
        fault_point("corpus.commit.mid")
    with pytest.raises(InjectedFault):
        fault_point("farm.wave")


#: Each bad plan and the check that must refuse it.  The point is
#: validated last, so the unregistered ``p`` still reaches the format,
#: action and countdown checks.
BAD_PLANS = {
    "point": "want point:countdown",          # no countdown
    "p:1:explode": "unknown fault action",     # unknown action
    "p:zero": "bad fault countdown",           # non-integer countdown
    "p:0": "must be >= 1",                     # countdown below 1
    "p:1:raise:extra": "want point:countdown",  # too many fields
    "nope:1": "unknown fault point",           # unregistered point
}


@pytest.mark.parametrize("spec", list(BAD_PLANS))
def test_bad_plans_are_config_errors(monkeypatch, spec):
    monkeypatch.setenv(faults.ENV_VAR, spec)
    reset_faults()
    with pytest.raises(ConfigError, match=BAD_PLANS[spec]):
        fault_point("farm.wave")


@pytest.mark.parametrize("point, countdown, action, match", [
    # Unknown point: the arm could never fire.
    ("farm.loop", 1, "raise", "unknown fault point"),
    # Zero countdown: never fires, yet reads as fired at once.
    ("farm.wave", 0, "raise", "must be >= 1"),
    ("farm.wave", 1, "explode", "unknown fault action"),
], ids=["unknown-point", "zero-countdown", "unknown-action"])
def test_bad_inject_arms_are_config_errors(point, countdown, action, match):
    with pytest.raises(ConfigError, match=match):
        with inject(point, countdown=countdown, action=action):
            pass


def test_registry_matches_the_points_in_src():
    """FAULT_POINTS is exactly the set of ``fault_point(...)`` names the
    library declares, so no arm can name a point that never runs."""
    found = set()
    for root, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as f:
                text = f.read()
            for literal in re.findall(r"fault_point\(f?\"([^\"]+)\"\)",
                                      text):
                found.update(literal.replace("{kind}", kind)
                             for kind in ("seed", "test"))
    assert found == FAULT_POINTS


def test_kill_action_exits_like_sigkill():
    """A ``kill`` arm takes the process down with exit 137 and no
    cleanup — verified in a child so this suite survives."""
    code = (
        "import atexit, sys\n"
        "atexit.register(lambda: print('CLEANUP RAN'))\n"
        "from repro.utils.faults import fault_point\n"
        "fault_point('farm.job.start')\n"
        "print('SURVIVED')\n"
    )
    env = dict(os.environ, REPRO_FAULTS="farm.job.start:1", PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == KILL_EXIT_CODE
    assert "SURVIVED" not in result.stdout
    assert "CLEANUP RAN" not in result.stdout


def test_injected_fault_is_not_a_repro_error():
    """Library error handling (one-line CLI errors, permanent job
    failures) must never swallow an injected crash as handled."""
    from repro.errors import ReproError
    assert not issubclass(InjectedFault, ReproError)
