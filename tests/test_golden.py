"""Golden gate: the bytes of `verify all --format json` on the desk grid.

The reports carry timings, so every `"elapsed_ms": ...` line is cut out
(with the comma before it) and the sha256 of the rest is compared with a
stored value. The output is not stored. When the output is meant to
change, print the new value with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import re

from eulerferm import cli

GOLDEN_SHA256 = \
    "306ea0120a6c8a08fedb7b0d7545294f88a3592bb9e46c7a0ecc541792142f03"

_ELAPSED = re.compile(r',\n\s*"elapsed_ms": [^\n]*')


def desk_grid_digest() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "all", "--format", "json"]) == 0
    text = _ELAPSED.sub("", out.getvalue())
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_all_json_matches_golden():
    assert desk_grid_digest() == GOLDEN_SHA256


if __name__ == "__main__":
    print(desk_grid_digest())
