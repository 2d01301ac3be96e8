"""Fresh-interpreter entry points of the CLI workloads.

    python3 perfbench/launch.py run SPEED_FILE MODULE [ARG ...]
    python3 perfbench/launch.py import MODULE

``run`` runs ``MODULE`` as ``__main__`` exactly as ``python -m MODULE
ARG ...`` would (exit code, stdout, stderr and tracebacks are the
module's), and times the :mod:`speed` reference loop in this same process
right before, every ``speed.TICK_S`` seconds while the module runs (from a
``SIGALRM`` handler) and right after; the loop times go to ``SPEED_FILE``,
one per line, so that the caller can scale the latency and subtract the
loops from it.  ``import`` imports ``MODULE``, prints ``imported``, then times
the reference loop and prints ``speed`` and the loop times.
"""

from __future__ import annotations

import runpy
import signal
import sys

import speed


def main() -> None:
    mode = sys.argv[1]
    if mode == "import":
        __import__(sys.argv[2])
        print("imported", flush=True)
        print("speed", *map(repr, speed.sample()), flush=True)
        return
    path, module = sys.argv[2], sys.argv[3]
    loops = speed.sample()
    signal.signal(signal.SIGALRM, lambda *_: loops.extend(speed.sample(1)))
    signal.setitimer(signal.ITIMER_REAL, speed.TICK_S, speed.TICK_S)
    sys.argv = [module, *sys.argv[4:]]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        loops += speed.sample()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{t!r}\n" for t in loops))


if __name__ == "__main__":
    main()
