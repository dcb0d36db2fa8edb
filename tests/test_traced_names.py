"""The names the benchmark's layer tracer wraps still exist.

`perfbench/layertrace.py` skips a target whose module, class or function
is gone and reads its metrics as 0, so a renamed or deleted function
would only show as a missing layer under `pytest perfbench`.  This
executes the tracer's source from its file path, writing no bytecode and
installing no wrapper, and resolves every default target as the tracer
does.
"""

import types
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / \
    "layertrace.py"


def load_layertrace():
    mod = types.ModuleType("layertrace")
    mod.__file__ = str(LAYERTRACE)
    exec(compile(LAYERTRACE.read_text(), mod.__file__, "exec"), mod.__dict__)
    return mod


def test_every_traced_name_resolves():
    lt = load_layertrace()
    wheres = [t["where"] for t in lt.default_targets()]
    assert "knwznw.sugawara:apply_L_raw" in wheres
    assert "knwznw._kernel:poly_mul" in wheres
    missing = [w for w in wheres if lt._resolve(w) is None]
    assert not missing
