"""The modules the flavor command loads: of the package only
``isoclifford``, ``isoclifford.cli`` and ``isoclifford.flavor``, and none
of ``BANNED``.

Runs ``isoclifford.cli.main`` on its arguments, prints the modules that
loaded, and exits with main's code, or with a message naming a module
that should not have loaded.  Run it under ``-S``, so that no site hook
loads a module before it records them, from the repository root::

    PYTHONPATH=src python -X dev -W error -S tests/flavor_modules.py \\
        flavor --group su6 --masses data/quark_masses.json --intervals
"""

import sys

before = set(sys.modules)

import contextlib
import io

from isoclifford.cli import main

BANNED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "numpy"}
PACKAGE = ["isoclifford", "isoclifford.cli", "isoclifford.flavor"]

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
added = sorted(set(sys.modules) - before)
print(f"flavor on Python {sys.version.split()[0]} added {len(added)} modules:", *added)
package = [name for name in added if name.partition(".")[0] == "isoclifford"]
if package != PACKAGE:
    sys.exit(f"flavor loaded {package} of the package, not {PACKAGE}")
if BANNED & set(added):
    sys.exit(f"flavor loaded {sorted(BANNED & set(added))}")
sys.exit(code)
