"""Golden CLI outputs: every committed report must come out byte for byte.

``tests/golden/`` holds the ``smms verify --points 64`` JSON of every
catalog family (and the per-point CSV of three of them), the
``smms conformal --points 64`` JSON of every family with a conformal pair,
and the ``smms table --points 64`` stdout and CSV.  The files pin the
numbers of one platform (x86-64, glibc libm); a refactor that claims
byte-identical reports must leave them untouched.  To rewrite them after a
change that is meant to move the numbers, run

    PYTHONPATH=src python tests/test_golden.py

To see what a change moves without rewriting anything, run

    PYTHONPATH=src python tests/test_golden.py --check

which regenerates the set into a temporary directory and prints, per file,
``identical`` or where the largest change of a number is (its JSON path, or
its line and column), its old and new value and its absolute and relative
size, together with every difference that is not a number changing; it
exits 1 on any difference.
"""

import contextlib
import difflib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest

import smmskit.catalog as cat
import smmskit.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden"
POINTS = "64"
CSV_FAMILIES = ("weighted_sphere", "skew_sphere_density", "neck_warped")


def _quiet(argv: list) -> tuple:
    """(exit code, stdout) of one in-process smms call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def generate(outdir: Path) -> list:
    """Writes every golden output into outdir; returns the file names."""
    outdir.mkdir(parents=True, exist_ok=True)
    names = []
    for family in cat.available():
        bundle = cat.make(family)
        config = outdir / f"{family}.config.json"
        config.write_text(json.dumps(bundle.config(k=64)), encoding="utf-8")
        argv = ["verify", "--config", str(config), "--points", POINTS,
                "--out", str(outdir / f"verify_{family}.json")]
        names.append(f"verify_{family}.json")
        if family in CSV_FAMILIES:
            argv += ["--csv", str(outdir / f"verify_{family}.csv")]
            names.append(f"verify_{family}.csv")
        _quiet(argv)
        if bundle.pair is not None:
            _quiet(["conformal", "--config", str(config), "--points", POINTS,
                    "--out", str(outdir / f"conformal_{family}.json")])
            names.append(f"conformal_{family}.json")
        config.unlink()
    _, text = _quiet(["table", "--points", POINTS,
                      "--csv", str(outdir / "table.csv")])
    (outdir / "table.txt").write_text(text, encoding="utf-8")
    return names + ["table.csv", "table.txt"]


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("golden")
    return outdir, generate(outdir)


def test_golden_set_is_complete(regenerated):
    _, names = regenerated
    assert sorted(names) == sorted(p.name for p in GOLDEN.glob("*"))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*")))
def test_output_matches_golden_bytes(regenerated, name):
    outdir, _ = regenerated
    assert (outdir / name).read_bytes() == (GOLDEN / name).read_bytes()


# a number standing alone: JSON, CSV or a formatted table cell
NUMBER = re.compile(r"(?<![\w.])(-?(?:(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
                    r"|NaN|Infinity|nan|inf))(?![\w.])")


def _line_changes(old: str, new: str, line: int):
    """The changed numbers of a line as (absolute change, location, old
    text, new text), or None when the line changed otherwise (text, a
    number's count, or a number that is not finite on either side)."""
    old_parts, new_parts = NUMBER.split(old), NUMBER.split(new)
    if len(old_parts) != len(new_parts) or old_parts[::2] != new_parts[::2]:
        return None
    changes, col = [], 1
    for i in range(1, len(old_parts), 2):
        col += len(old_parts[i - 1])
        a, b = old_parts[i], new_parts[i]
        if a != b:
            x, y = float(a), float(b)
            if not (math.isfinite(x) and math.isfinite(y)):
                return None
            changes.append((abs(x - y), f"line {line} col {col}", a, b))
        col += len(a)
    return changes


def _json_leaves(tree, path: str = "$"):
    """(JSON path, value) of every leaf of a parsed document, in order; a
    list entry with a "name" (a check row) is indexed by its name."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _json_leaves(value, f"{path}.{key}")
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            name = value.get("name") if isinstance(value, dict) else None
            yield from _json_leaves(value, f"{path}[{i if name is None else name}]")
    else:
        yield path, tree


def _json_changes(old: str, new: str):
    """The changed numbers of two JSON documents of the same shape as
    (absolute change, JSON path, old, new); None unless both parse and
    have the same paths."""
    try:
        old_leaves = list(_json_leaves(json.loads(old)))
        new_leaves = list(_json_leaves(json.loads(new)))
    except ValueError:
        return None
    if [p for p, _ in old_leaves] != [p for p, _ in new_leaves]:
        return None
    return [(abs(x - y), path, repr(x), repr(y))
            for (path, x), (_, y) in zip(old_leaves, new_leaves)
            if type(x) in (int, float) and type(y) in (int, float) and x != y
            and math.isfinite(x) and math.isfinite(y)]


def compare(old: str, new: str) -> tuple:
    """(the largest change of a number, the other differences) between two
    versions of a golden file, matched line by line.  The largest change is
    (absolute change, location, old text, new text), located by its JSON
    path when both versions are JSON documents of the same shape and by
    line and column otherwise; None when no number changed."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    changes, other = [], []
    matcher = difflib.SequenceMatcher(None, old_lines, new_lines, autojunk=False)
    for op, i1, i2, j1, j2 in matcher.get_opcodes():
        if op == "equal":
            continue
        pairs = zip(old_lines[i1:i2], new_lines[j1:j2]) if i2 - i1 == j2 - j1 else ()
        for line, (a, b) in enumerate(pairs, i1 + 1):
            found = _line_changes(a, b, line)
            if found is None:
                other.append(f"line {line}: {a.strip()!r} -> {b.strip()!r}")
            else:
                changes += found
        if i2 - i1 != j2 - j1:
            other += [f"line {i + 1} removed: {old_lines[i].strip()!r}"
                      for i in range(i1, i2)]
            other += [f"line {j + 1} added: {new_lines[j].strip()!r}"
                      for j in range(j1, j2)]
    changes = _json_changes(old, new) or changes
    largest = max(changes, key=lambda c: c[0]) if changes else None
    return largest, other


def describe(largest: tuple) -> str:
    """One change as 'location: old -> new (abs ..., rel ...)'; the
    relative size is against the old value."""
    size, where, a, b = largest
    rel = size / abs(float(a)) if float(a) != 0.0 else math.inf
    return f"{where}: {a} -> {b} (abs {size:.3e}, rel {rel:.3e})"


def check() -> int:
    """Regenerates the set into a temporary directory and prints how each
    file differs from the committed one; 1 when any file differs."""
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        made = set(generate(outdir))
        committed = {p.name for p in GOLDEN.glob("*")}
        for name in sorted(made | committed):
            if name not in made or name not in committed:
                print(f"{name}: {'not generated' if name in committed else 'not committed'}")
                status = 1
                continue
            old, new = (GOLDEN / name).read_bytes(), (outdir / name).read_bytes()
            if old == new:
                print(f"{name}: identical")
                continue
            status = 1
            largest, other = compare(old.decode("utf-8"), new.decode("utf-8"))
            print(f"{name}: " + ("no number changed" if largest is None
                                 else "largest change at " + describe(largest)))
            for line in other:
                print(f"  {line}")
    return status


def test_compare_separates_number_changes_from_other_changes():
    old = '{\n  "value": 1.5e-16,\n  "name": "law_ricci",\n  "n": 3\n}\n'
    assert compare(old, old) == (None, [])
    rows = '{"checks": [{"name": "mu_spread", "value": 2.0}, {"value": 1.0}]}'
    assert compare(rows, rows.replace("1.0", "1.5"))[0][1] == "$.checks[1].value"
    assert compare(rows, rows.replace("2.0", "2.5"))[0][1] == "$.checks[mu_spread].value"
    largest, other = compare(old, old.replace("1.5e-16", "2.5e-16"))
    assert largest == (2.5e-16 - 1.5e-16, "$.value", "1.5e-16", "2.5e-16") and other == []
    assert describe(largest) == "$.value: 1.5e-16 -> 2.5e-16 (abs 1.000e-16, rel 6.667e-01)"
    largest, other = compare(old, old.replace("law_ricci", "law_scalar"))
    assert largest is None and other == [
        "line 3: '\"name\": \"law_ricci\",' -> '\"name\": \"law_scalar\",'"]
    _, other = compare(old, old.replace("1.5e-16", "NaN"))
    assert other == ["line 2: '\"value\": 1.5e-16,' -> '\"value\": NaN,'"]
    _, other = compare(old, old.replace('  "n": 3\n', ""))
    assert other == ["line 4 removed: '\"n\": 3'"]
    # a digit inside a name is text, not a number
    assert compare("tau_f0,1.0\n", "tau_f1,1.0\n")[1] != []
    # outside JSON a change is located by line and column
    largest, _ = compare("t,v\n0.5,2.0\n", "t,v\n0.5,2.5\n")
    assert largest == (0.5, "line 2 col 5", "2.0", "2.5")
    assert describe(largest) == "line 2 col 5: 2.0 -> 2.5 (abs 5.000e-01, rel 2.500e-01)"


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    for name in generate(GOLDEN):
        print(f"wrote tests/golden/{name}")
