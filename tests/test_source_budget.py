"""Every module of `src/knwznw` stays under a step in CPython's compile
memory.

With CPython 3.11 the tracemalloc peak of `compile()` on verify.py is
2.68 MB at 8,192 tokens and 3.11 MB at 8,194, and every run that imports
a module and finds no bytecode pays it in peak RSS.  Tokens are counted
with `tokenize`, comments and blank lines left out.
"""

import io
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "knwznw"
SOURCES = sorted(PACKAGE.rglob("*.py"))
TOKEN_BUDGET = 8192


def count_tokens(path):
    text = path.read_text()
    return sum(1 for tok in tokenize.generate_tokens(io.StringIO(text).readline)
               if tok.type not in (tokenize.COMMENT, tokenize.NL))


@pytest.mark.parametrize("path", SOURCES, ids=[
    str(p.relative_to(PACKAGE)) for p in SOURCES])
def test_module_fits_its_token_budget(path):
    n = count_tokens(path)
    assert n <= TOKEN_BUDGET, (
        "src/knwznw/%s has %d tokens, over %d: past this step its "
        "compile() costs about 0.4 MB more peak memory (see the FOUND line "
        "on verify.py in CHANGES.md); split the module, say one layer's "
        "checks into their own module, instead of growing it"
        % (path.relative_to(PACKAGE), n, TOKEN_BUDGET))
