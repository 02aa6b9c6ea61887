"""Seeded mutations of catalog and custom configs through verify and conformal.

Each run edits one or two entries of a valid config: it replaces a value by
an awkward one, mostly of the same kind (out-of-range numbers, NaN and the
infinities, bad expressions, another family's name), deletes a key, or adds
an unknown one.  Whatever the edit, ``smms`` must exit 0, 1 or 2,
exit 2 with exactly one ``error:`` line, let no exception escape, and never
exit 0 on a config that holds NaN or an infinity.  Grids stay at 64 points
or fewer, or above the bound, so nothing large is allocated.
"""

import copy
import json
import math
import random

import pytest

import smmskit.catalog as cat
import smmskit.cli as cli

SEEDS = range(4)
RUNS_PER_SEED = 40

NUMBERS = [0, 1, -1, 2, 3, 0.5, -0.5, 1e-320, 1e-300, 1e155, 1e308, -1e308,
           10**7, 2**64, math.nan, math.inf, -math.inf]
OTHERS = [None, True, False, "", "x", "nan", [], [0.2, 2.0], [1, 2, 3], {}, {"k": 1}]
STRINGS = [
    "t", "s", "sin(t)", "2 + cos(t)", "log(t)", "1/(t - 1)", "sqrt(-1 - t)",
    "exp(1000*t)", "t^0.5", "((t", "t +", "0*t", "-1", "1e308*t^2", "cos(s)",
    "Einstein", "SpaceForm", "ContradictionError", "space_form", "split",
] + cat.available()
NAMES = ["k", "margin", "cap", "complete", "compact", "lambda", "kappa", "mu",
         "branch_local", "residual", "u", "v", "kind", "n", "m", "bogus"]


def _custom_configs() -> list:
    radial = {
        "schema": 1,
        "custom": {
            "interval": [0.0, 3.141592653589793],
            "warping": "sin(t)",
            "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
            "density": {"kind": "radial", "v": "2 + cos(t)"},
            "n": 3, "m": 2.0, "mu": -3.0,
        },
        "flags": {"complete": True, "compact": True},
        "grid": {"k": 16},
        "expectations": {"lambda": 0.5, "branch_local": "Einstein"},
        "conformal": {"u": "2 + cos(t)"},
    }
    split = {
        "schema": 1,
        "custom": {
            "interval": [0.5, 2.0],
            "warping": "t",
            "fiber": {"kind": "warped", "interval": [0.1, 3.0], "warping": "sin(s)",
                      "fiber": {"kind": "space_form", "dim": 1, "curvature": 1.0}},
            "density": {"kind": "split", "v_n": "2 + cos(s)", "alpha": "1 + 0*t"},
            "n": 3, "m": 2.0, "mu": 0.0,
        },
        "grid": {"k": 12, "margin": 0.1},
        "tolerances": {"residual": 1e-6},
        "conformal": {"u": "1 + t"},
    }
    return [radial, split]


BASES = [cat.make(name).config(k=16) for name in cat.available()] + _custom_configs()


def _slots(node) -> list:
    """(container, key) of every entry of a config, depth first."""
    found = []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        found.append((node, key))
        if isinstance(val, (dict, list)):
            found += _slots(val)
    return found


def _replacement(rng: random.Random, value):
    """Mostly a value of the same kind, sometimes any other."""
    if rng.random() < 0.25:
        return rng.choice(NUMBERS + OTHERS + STRINGS)
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return rng.choice(NUMBERS + [-value, value * (1.0 + 1e-7)])
    if isinstance(value, str):
        return rng.choice(STRINGS)
    return rng.choice(OTHERS)


def _mutate(rng: random.Random, cfg: dict):
    for _ in range(1 if rng.random() < 0.7 else 2):
        container, key = rng.choice(_slots(cfg))
        op = rng.random()
        if op < 0.1 and isinstance(container, dict):
            del container[key]
        elif op < 0.2:
            target = container[key] if isinstance(container[key], dict) else cfg
            target[rng.choice(NAMES)] = rng.choice(NUMBERS + OTHERS + STRINGS)
        else:
            container[key] = _replacement(rng, container[key])
    grid = cfg.get("grid")
    if isinstance(grid, dict):
        k = grid.get("k")
        if isinstance(k, int) and not isinstance(k, bool) and 64 < k <= cli.MAX_GRID_POINTS:
            grid["k"] = 16


@pytest.mark.parametrize("seed", SEEDS)
def test_mutated_configs_exit_cleanly(tmp_path, capsys, seed):
    rng = random.Random(seed)
    path = tmp_path / "cfg.json"
    codes = {0: 0, 1: 0, 2: 0}
    for run in range(RUNS_PER_SEED):
        cfg = copy.deepcopy(rng.choice(BASES))
        _mutate(rng, cfg)
        text = json.dumps(cfg)
        path.write_text(text)
        holds_constant = any(word in text for word in ("NaN", "Infinity"))
        for command in ("verify", "conformal"):
            where = (seed, run, command, text)
            try:
                rc = cli.main([command, "--config", str(path)])
            except Exception as exc:  # noqa: BLE001 - any escape is the failure
                pytest.fail(f"{type(exc).__name__}: {exc} escaped at {where}")
            err = capsys.readouterr().err
            assert rc in (0, 1, 2), where
            if rc == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (err, where)
            assert not (rc == 0 and holds_constant), where
            codes[rc] += 1
    assert codes[2] > 0 and codes[0] + codes[1] > 0, codes
