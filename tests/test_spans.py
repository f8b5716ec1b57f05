"""Every function the benchmark's span tracer wraps exists in hipm.

`perfbench/spans.py` names its targets by module and attribute.  When one is
renamed or removed, the tracer only prints "not traced" to stderr and every
per-layer metric built from it reads 0, so a rename would blank a metric
without failing anything else.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spans  # noqa: E402  (perfbench is not a package; its tests import it the same way)


def test_every_traced_target_resolves():
    missing = []
    for _name, modname, attr, _extra in spans.TARGETS:
        owner, _, key = attr.rpartition(".")
        mod = importlib.import_module(modname)
        holder = getattr(mod, owner, None) if owner else mod
        if holder is None or not callable(vars(holder).get(key)):
            missing.append(f"{modname}.{attr}")
    assert not missing, f"traced targets not found: {missing}"
