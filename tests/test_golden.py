"""Golden CLI outputs: every committed report must come out byte for byte.

``tests/golden/`` holds the ``smms verify --points 64`` JSON of every
catalog family (and the per-point CSV of three of them), the
``smms conformal --points 64`` JSON of every family with a conformal pair,
and the ``smms table --points 64`` stdout and CSV.  The files pin the
numbers of one platform (x86-64, glibc libm); a refactor that claims
byte-identical reports must leave them untouched.  To rewrite them after a
change that is meant to move the numbers, run

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
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


if __name__ == "__main__":
    for name in generate(GOLDEN):
        print(f"wrote tests/golden/{name}")
