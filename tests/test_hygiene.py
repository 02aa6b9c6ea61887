"""Source hygiene checks that need only the standard library."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "smmskit"


def _unused_imports(path: Path) -> list:
    """Module-level imports of a file that no name in it uses or exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in stmt.targets)):
            used.update(ast.literal_eval(stmt.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_module_imports():
    files = sorted(SRC.glob("*.py"))
    assert files
    unused = [hit for path in files for hit in _unused_imports(path)]
    assert unused == []


def _third_party_imports() -> set:
    """Top-level modules outside the standard library that the package imports."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"smmskit"}


def test_declared_dependencies_are_the_imported_ones():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["project"]["dependencies"]}
    assert _third_party_imports() == declared


def _caches(path: Path) -> list:
    """(line, name, call or None) of each functools cache a file names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "functools"
               for alias in node.names}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            name = node.attr
        elif isinstance(node, ast.Name) and node.id in aliases:
            name = aliases[node.id]
        else:
            continue
        if name in ("cache", "lru_cache"):
            found.append((node.lineno, name, calls.get(id(node))))
    return found


def _integer_maxsize(call) -> bool:
    """The lru_cache call gives maxsize as an integer literal (not None)."""
    if call is None:
        return False
    sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    return (len(sizes) == 1 and isinstance(sizes[0], ast.Constant)
            and type(sizes[0].value) is int)


def test_every_cache_is_bounded():
    # process-wide caches live as long as the process; each needs a bound
    found = {f"{path.name}:{line} {name}": call for path in sorted(SRC.glob("*.py"))
             for line, name, call in _caches(path)}
    assert {hit.split(":")[0] for hit in found} >= {"profiles.py", "odes.py"}
    unbounded = [hit for hit, call in found.items()
                 if not (hit.endswith(" lru_cache") and _integer_maxsize(call))]
    assert unbounded == []


def _public_definitions(path: Path) -> list:
    """(line, name) of the public module-level functions and classes of a
    file, and of the public methods of those classes."""
    found = []
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        found.append((stmt.lineno, stmt.name))
        if isinstance(stmt, ast.ClassDef):
            found += [(m.lineno, m.name) for m in stmt.body
                      if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return found


def _names_in_use() -> set:
    """Every word of the Python files under src/, tests/ and bench/, except
    the name a def or class line defines."""
    words = set()
    for tree in ("src", "tests", "bench"):
        for path in (ROOT / tree).rglob("*.py"):
            for line in path.read_text(encoding="utf-8").splitlines():
                found = re.findall(r"\w+", line)
                defined = re.match(r"\s*(?:def|class)\s+(\w+)", line)
                if defined:
                    found.remove(defined.group(1))
                words.update(found)
    return words


def test_every_public_name_is_used():
    # a public function, class or method that nothing names is dead code
    used = _names_in_use()
    unused = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
              for line, name in _public_definitions(path) if name not in used]
    assert unused == []


def test_one_evaluation_protocol():
    # value, jet and the first-failure rule are written once, in profiles.Profile;
    # every other profile supplies _compute and inherits them
    own = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for m in node.body:
                if (isinstance(m, ast.FunctionDef) and m.name in ("value", "jet", "_evaluate")
                        and (path.name, node.name) != ("profiles.py", "Profile")):
                    own.append(f"{path.name}:{m.lineno} {node.name}.{m.name}")
    assert own == []
    assert "class Profile:" in (SRC / "profiles.py").read_text(encoding="utf-8")


def _functions(tree) -> list:
    """(qualified name, node) of every function of a module, methods as
    Class.method, nested functions under their enclosing names."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    found.append((name, child))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def test_block_layout_is_decided_once():
    # WarpedMetric.split decides whether points carry s, WarpedMetric.layout
    # reads the blocks from the point; nothing else asks the fiber
    deciders = {"geometry.py:WarpedMetric.split", "geometry.py:WarpedMetric.layout"}
    calls = set()
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("natural_split", "blocks")):
                    calls.add(f"{path.name}:{name}")
    assert calls == deciders
    allowed = {"WarpedMetric.grid", "WarpedMetric.split"}
    params = []
    for module in ("geometry.py", "weighted.py", "conformal.py"):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        for name, fn in _functions(tree):
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            for arg in args:
                if (arg.arg in ("s_active", "split") and name not in allowed
                        and not name.endswith(".blocks")):
                    params.append(f"{module}:{fn.lineno} {name}({arg.arg})")
    assert params == []


def test_one_certification_route():
    # classify.certify is the one route from a grid to a verdict: the command
    # line renders certificates and runs no kernel pass, gate or classifier
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & {"einstein_residuals", "tau_consistency_residual",
                       "classify_report", "ContradictionError"} == set()
    defined = {name for name, _ in _functions(tree)}
    assert "_transformed_residuals" not in defined
    skipping = [path.name for path in sorted(SRC.glob("*.py"))
                if "with_diagnostics=False" in path.read_text(encoding="utf-8")]
    assert skipping == []


def test_no_kernel_pass_outside_certify():
    # certify estimates lambda from its own kernel pass and writes the
    # expectation rows; the command line only samples grids and renders
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    from_weighted = {alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "weighted"
                     for alias in node.names}
    assert from_weighted <= {"Instance", "sample_points"}
    names = {node.id if isinstance(node, ast.Name) else node.attr
             for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    assert "point_fields" not in names | from_weighted
    assert "_estimate_lambda" not in {name for name, _ in _functions(tree)}
    classify = ast.parse((SRC / "classify.py").read_text(encoding="utf-8"))
    assert "classify" not in {name for name, _ in _functions(classify)}


def _callers(name: str) -> set:
    """module:function of every function under src/ that calls name."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for qual, fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == name):
                    found.add(f"{path.name}:{qual}")
    return found


def test_one_density_route():
    # the certified route differentiates v alone: the jets of f = -m log v
    # serve only the f-form cross-check, and tau_f (with its mu term) is
    # written once, in weighted.weighted_scalar, which the kernel and the
    # conformal scalar law call (the catalog's closed forms per family and
    # the finite-difference oracle are independent routes)
    assert _callers("f_bijet") == {"weighted.py:bakry_emery"}
    assert _callers("weighted_scalar") == {"weighted.py:point_fields",
                                           "conformal.py:conformal_law_residuals"}
    writers, mu_terms = set(), set()
    for path in sorted(set(SRC.glob("*.py")) - {SRC / "catalog.py", SRC / "oracle.py"}):
        for qual, fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign) and isinstance(node.value, ast.BinOp)
                        and any(isinstance(t, ast.Name) and t.id.startswith("tau_f")
                                for t in node.targets)):
                    writers.add(f"{path.name}:{qual}")
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
                        isinstance(side, ast.Attribute) and side.attr == "mu"
                        for side in (node.left, node.right)):
                    mu_terms.add(f"{path.name}:{qual}")
    assert writers == {"weighted.py:weighted_scalar"}
    assert mu_terms == {"weighted.py:weighted_scalar"}


def test_base_pass_takes_no_log_entry_by_entry(monkeypatch):
    import math

    import smmskit.catalog as cat
    from smmskit import jets
    from smmskit.weighted import einstein_residuals, sample_points

    mapped = []
    per_entry = jets._per_entry

    def spy(fn, x):
        mapped.append(fn)
        return per_entry(fn, x)

    monkeypatch.setattr(jets, "_per_entry", spy)
    b = cat.make("weighted_sphere", m=2.5)
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 64)
    rep = einstein_residuals(inst.metric, inst.density, inst.params, b.lam, pts)
    assert rep.mu is not None
    assert math.log not in mapped
