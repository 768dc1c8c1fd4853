"""Golden gate: the bytes of `verify all` on the desk grid, in every format,
the reports of the desk grid judged pointwise (by interpolation, below),
the bytes of `verify thm2` on a grid with k = 0 and k up to 6 (every
format), the bytes of `witt --naive` on two small cases in every format,
and the bytes of `poly 135`, `numbers 60` (every format) and
`eval 60 7/3`.

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
import itertools
import json
import re
from fractions import Fraction

import pytest

from eulerferm import cli, identities
from eulerferm.identities import run_suite
from eulerferm.polynomial import Polynomial

GOLDEN_SHA256 = {
    "json": "306ea0120a6c8a08fedb7b0d7545294f88a3592bb9e46c7a0ecc541792142f03",
    "text": "2bb40de7a122a8fd3b4ab71ef5f49d474aeaa0f06ae43088c1b7d9b25ff31337",
    "csv": "dee51af7c4433f79788ed00fdd3bc45fefb362d828f537c4fb84125df7ae65ec",
    "md": "f7a85c7fbfb19e1ee92a97bbdb246032d300faa8af45c048b9c69d4d342dbf37",
    "pointwise":
        "b0ec8e8c37a3cbed62b8b54ae38f65e7490a93e843a9bbb0a5c3b1805dc29779",
}

# thm2 beyond the desk grid's k in 1..3: k = 0, and k above the pivot's
# low degrees
THM2_ARGV = ["verify", "thm2", "--m", "0..8", "--n", "0..8", "--s", "1..4",
             "--k", "0..6"]

THM2_SHA256 = {
    "json": "1806d82a99994876880da78a41960110210417715bef496bf205a2d93fb7d823",
    "text": "f5ef82056990e441ccc9fb96075d0dbf4869162e6605653b4d266aee4cc0f628",
    "csv": "630ed109a14e0052bc5dca6b3551ec61acdbb75af26e66ac0b2be9d4edfc7cda",
    "md": "527fa3ff9ce47b61f01225a80b656fa87e23d24bdede2a9f15e2eb926f66d253",
}

# `witt --naive` prints no timing, so its whole output is hashed
WITT_CASES = {
    "n6": ["--p", "5", "--precision", "3", "--n", "6", "--a", "3/2"],
    # E_0 = 1 equals the truncated sum exactly: the defect is inf
    "n0": ["--p", "3", "--precision", "2", "--n", "0", "--a", "1/2"],
}

WITT_SHA256 = {
    ("n6", "text"):
        "da3a953eb101b481cd9adaea9abc88516b162931dee7307e44d953938997ceea",
    ("n6", "json"):
        "08d375a825fbcabb39ccca837a7993620665cc2d5dfe4b6de53d2b183862729b",
    ("n6", "csv"):
        "23b4a3ebc4fa3ff1f93063a3140662cab7de9731e0b830d5f57f631c51cd7787",
    ("n6", "md"):
        "4f7452ad9b575c90a90d81140a4fc38ead9b089afe624ccc15c3e0a3e95d0f28",
    ("n0", "text"):
        "982084cfbc5da7758afdf0b1c58cb8aa9f57e15724608cc5e4ed3f97b786f3af",
    ("n0", "json"):
        "17eb7d459afad4f7a76b04081b4b15abb85f6bd4db868c0d5c80a39e74437b2e",
    ("n0", "csv"):
        "a9bf601b239f0f0dad4704f2f8922748d751b9ace1f2d45436156f733b9c4986",
    ("n0", "md"):
        "be4808d3aaa67ed31c27de095537831da301727f6cd3347c27705023d62f7b11",
}

# the table commands print no timing either; keys are the argv
TABLE_SHA256 = {
    ("poly", "135", "--format", "text"):
        "881b5b4cd51ebab792791540e16042438dc7d36bf450b1fc1a8ce9ce6ae12379",
    ("poly", "135", "--format", "json"):
        "c4da02c4bc45a9033c16ce5557ba56d46b763c2894aff62e48b44be2b611a021",
    ("poly", "135", "--format", "csv"):
        "e15e0b6a95ce9c695ac56c6b2c0a804af0df8949fd6929a1be30a45a5b269cdb",
    ("poly", "135", "--format", "md"):
        "27f520963d4165c0840e5c7a8f965f2db208ed32b100bbfb59d8325432543c93",
    ("numbers", "60", "--format", "text"):
        "df33dd412c141b9196f34eea22e4ff471eb94bad1a25bf49c98bd384050d15df",
    ("numbers", "60", "--format", "json"):
        "afbbcf37e3d405d1eeb112e8ec08944234a2ad2f5443dccbcb9a87dbc16cd427",
    ("numbers", "60", "--format", "csv"):
        "80ee70f2fa7c48b2ae70de1feaa2633a575a02844cb30bbd354966db8882dbe3",
    ("numbers", "60", "--format", "md"):
        "7605255939b4fb2f5955374d8a7b89858492099c65391663a31ca9254d9d48fa",
    ("eval", "60", "7/3"):
        "36b66e60d43855f3ac7643d4ed368248e23a6e9a152bb6440d2ba6088130d11c",
}


def report_to_dict(report) -> dict:
    """The JSON object of one report, {id, params, mode, residual, pass,
    elapsed_ms}, mapped here by ``_jsonable`` and not by the writer's code,
    so it can stand as the writer's oracle."""
    return {
        "id": report.checker,
        "params": {k: _jsonable(v) for k, v in report.params.items()},
        "mode": report.mode,
        "residual": _jsonable(report.residual),
        "pass": report.passed,
        "elapsed_ms": report.elapsed_ms,
    }


def _jsonable(value):
    """An int or bool as it is, a Fraction as its rational string, a
    Polynomial as its coefficient strings, a list or tuple item by item,
    and anything else as ``str``."""
    if isinstance(value, int):
        return value
    if isinstance(value, Polynomial):
        return [str(c) for c in value.coeffs]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def interpolate(lhs, rhs, *lemmas):
    """The interpolation judge of a poly body's result: both sides at
    degree + 1 distinct points 0, 1, -1, 2, -2, ..., where every difference
    vanishes only if lhs = rhs, and every lemma residual zero. Returns
    (the first nonzero difference, or 0; whether it passes). It never forms
    the residual polynomial, so it shares no judging code with the
    driver, but it reads the same sides."""
    degree = max((p.degree for p in (lhs, rhs) if p), default=0)
    points = [Fraction((i + 1) // 2 * (-1) ** (i + 1))
              for i in range(degree + 1)]
    diffs = [lhs(t) - rhs(t) for t in points]
    return (next((d for d in diffs if d), Fraction(0)),
            not any(diffs) and not any(lemmas))


def pointwise(reports, body=None):
    """One checker's reports, in the order of its sweep, judged again by
    ``interpolate``, with mode ``"pointwise"``: from the sides that ``body``
    (by default the checker's own) gives at each report's params, called as
    the sweep calls it, with the sweep's memos, which are dropped at the end.
    A report of a scalar or valuation checker, or one whose body raised,
    holds no Polynomial residual and comes back as it is."""
    judged = []
    try:
        for r in reports:
            if isinstance(r.residual, Polynomial):
                own = getattr(identities, f"check_{r.checker}").__wrapped__
                residual, passed = interpolate(*(body or own)(**r.params))
                r = r._replace(mode="pointwise", residual=residual,
                               passed=passed)
            judged.append(r)
    finally:
        identities._drop_sweep_memos()
    return judged


def judged_suite(ids=None, grid=None, judge="symbolic"):
    """``run_suite(ids, grid)``, each checker's reports judged
    ``pointwise`` when ``judge`` says so."""
    reports = run_suite(ids, grid)
    if judge == "symbolic":
        return reports
    return [r for _, sweep in itertools.groupby(reports, lambda r: r.checker)
            for r in pointwise(sweep)]


_ELAPSED = {
    "json": re.compile(r',\n\s*"elapsed_ms": [^\n]*'),
    "csv": re.compile(r",[^,\n]*\r$", re.MULTILINE),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_digest(argv, fmt: str) -> str:
    """sha256 of a passing `verify` run in one format, less its timings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--format", fmt]) == 0
    text = out.getvalue()
    if fmt in _ELAPSED:
        text = _ELAPSED[fmt].sub("", text)
    return _sha256(text)


def desk_grid_digest(fmt: str = "json") -> str:
    if fmt == "pointwise":
        dicts = [report_to_dict(r) for r in judged_suite(judge="pointwise")]
        for d in dicts:
            del d["elapsed_ms"]
        return _sha256(json.dumps(dicts))
    return verify_digest(["verify", "all"], fmt)


def table_digest(argv) -> str:
    """sha256 of the whole output of a command that prints no timing."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return _sha256(out.getvalue())


def witt_digest(case: str, fmt: str) -> str:
    return table_digest(["witt", *WITT_CASES[case], "--naive",
                         "--format", fmt])


def test_verify_all_json_matches_golden():
    assert desk_grid_digest("json") == GOLDEN_SHA256["json"]


@pytest.mark.parametrize("fmt", ["text", "csv", "md"])
def test_verify_all_matches_golden(fmt):
    assert desk_grid_digest(fmt) == GOLDEN_SHA256[fmt]


def test_pointwise_suite_matches_golden():
    assert desk_grid_digest("pointwise") == GOLDEN_SHA256["pointwise"]


@pytest.mark.parametrize("fmt", sorted(THM2_SHA256))
def test_verify_thm2_wide_k_matches_golden(fmt):
    assert verify_digest(THM2_ARGV, fmt) == THM2_SHA256[fmt]


@pytest.mark.parametrize("case,fmt", sorted(WITT_SHA256))
def test_witt_naive_matches_golden(case, fmt):
    assert witt_digest(case, fmt) == WITT_SHA256[case, fmt]


@pytest.mark.parametrize("argv", sorted(TABLE_SHA256), ids=" ".join)
def test_table_commands_match_golden(argv):
    assert table_digest(argv) == TABLE_SHA256[argv]


if __name__ == "__main__":
    for fmt in GOLDEN_SHA256:
        print(f'    "{fmt}": "{desk_grid_digest(fmt)}",')
    for fmt in THM2_SHA256:
        print(f'    "{fmt}": "{verify_digest(THM2_ARGV, fmt)}",')
    for case, fmt in WITT_SHA256:
        print(f'    ("{case}", "{fmt}"):\n'
              f'        "{witt_digest(case, fmt)}",')
    for argv in TABLE_SHA256:
        key = ", ".join(f'"{a}"' for a in argv)
        print(f'    ({key}):\n        "{table_digest(argv)}",')
