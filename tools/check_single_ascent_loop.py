#!/usr/bin/env python
"""CI check: the repo has exactly one gradient-ascent loop body.

``run_ascent`` in ``repro/core/engine.py`` is the single ascent loop;
every engine and the iterative-FGSM baseline iterate through it.  This
script fails if the engine module carries any other
``for iteration in range`` loop or the FGSM baseline grows its own.

Exit code 0 on success, non-zero with a message on any violation.

Usage:  PYTHONPATH=src python tools/check_single_ascent_loop.py
"""

from __future__ import annotations

import inspect
import sys


def fail(message):
    print(f"ASCENT LOOP CHECK FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    import repro.baselines.adversarial as adversarial_mod
    import repro.core.engine as engine_mod
    if "for iteration in range" in inspect.getsource(adversarial_mod):
        fail(f"{adversarial_mod.__name__} grew its own ascent loop back")
    if inspect.getsource(engine_mod).count("for iteration in range") != 1:
        fail("repro.core.engine must contain exactly one ascent loop")
    print("single ascent loop OK")


if __name__ == "__main__":
    main()
