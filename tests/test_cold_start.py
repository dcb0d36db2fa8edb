"""Importing the CLI and the verify layer loads neither `dataclasses` nor
`inspect`, and importing the CLI alone does not load the verify layer.

Every command, and every benchmark run, starts a fresh interpreter, and
those two modules (with `ast`, `dis` and `tokenize`, which `inspect`
loads) took about 10 ms of its start-up.  The records are
`typing.NamedTuple`s and the verify registry reads a check's parameter
names from its code object.  `cmd_verify` imports the verify layer
(`verify`, `verify_kz`, `verify_samples`) when it runs, so no other
command pays for compiling and loading it.  The children run with -S, so
no module that a site hook imports can hide one that knwznw imports.
"""

import os
import subprocess
import sys
from pathlib import Path

import knwznw

SRC = str(Path(knwznw.__file__).resolve().parents[1])


def test_cli_and_verify_import_neither_dataclasses_nor_inspect():
    code = ("import sys, knwznw.cli, knwznw.verify; "
            "print(knwznw.__file__); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    where, loaded = done.stdout.splitlines()
    assert where == knwznw.__file__
    assert loaded == "[]"


def test_importing_the_cli_loads_no_verify_module():
    code = ("import sys, knwznw.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('knwznw.verify')))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
