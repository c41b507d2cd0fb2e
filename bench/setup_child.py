"""Fresh-interpreter set-up, timed from outside by run.py as ``setup_s``.

    python3 bench/setup_child.py <manifest.json>

Imports the library, then resolves every generated config of the
workload (each reads its tenor CSV), as the CLI does on every call.
The library must be importable (run.py puts src/ on PYTHONPATH).
"""

import json
import sys

import affine_libor  # noqa: F401  (the import is part of what is timed)
from affine_libor import cli

with open(sys.argv[1], "r", encoding="utf-8") as fh:
    manifest = json.load(fh)
for entry in manifest:
    cli.RunConfig.from_file(entry["config"], seed=entry["seed"],
                            method=entry["method"])
