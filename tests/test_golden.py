"""Golden gate: the bytes of `verify all` on the desk grid, in every format,
and the reports of the pointwise suite.

The reports carry timings, so they are cut out before hashing: every
`"elapsed_ms": ...` line of the JSON (with the comma before it), the last
column of the CSV, and the `elapsed_ms` key of each pointwise report. The
sha256 of the rest is compared with a stored value; the output is not
stored. When the output is meant to change, print the new values with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import re

import pytest

from eulerferm import cli
from eulerferm.identities import report_to_dict, run_suite

GOLDEN_SHA256 = {
    "json": "306ea0120a6c8a08fedb7b0d7545294f88a3592bb9e46c7a0ecc541792142f03",
    "text": "2bb40de7a122a8fd3b4ab71ef5f49d474aeaa0f06ae43088c1b7d9b25ff31337",
    "csv": "dee51af7c4433f79788ed00fdd3bc45fefb362d828f537c4fb84125df7ae65ec",
    "md": "f7a85c7fbfb19e1ee92a97bbdb246032d300faa8af45c048b9c69d4d342dbf37",
    "pointwise":
        "b0ec8e8c37a3cbed62b8b54ae38f65e7490a93e843a9bbb0a5c3b1805dc29779",
}

_ELAPSED = {
    "json": re.compile(r',\n\s*"elapsed_ms": [^\n]*'),
    "csv": re.compile(r",[^,\n]*\r$", re.MULTILINE),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def desk_grid_digest(fmt: str = "json") -> str:
    if fmt == "pointwise":
        dicts = [report_to_dict(r) for r in run_suite(mode="pointwise")]
        for d in dicts:
            del d["elapsed_ms"]
        return _sha256(json.dumps(dicts))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "all", "--format", fmt]) == 0
    text = out.getvalue()
    if fmt in _ELAPSED:
        text = _ELAPSED[fmt].sub("", text)
    return _sha256(text)


def test_verify_all_json_matches_golden():
    assert desk_grid_digest("json") == GOLDEN_SHA256["json"]


@pytest.mark.parametrize("fmt", ["text", "csv", "md"])
def test_verify_all_matches_golden(fmt):
    assert desk_grid_digest(fmt) == GOLDEN_SHA256[fmt]


def test_pointwise_suite_matches_golden():
    assert desk_grid_digest("pointwise") == GOLDEN_SHA256["pointwise"]


if __name__ == "__main__":
    for fmt in GOLDEN_SHA256:
        print(f'    "{fmt}": "{desk_grid_digest(fmt)}",')
