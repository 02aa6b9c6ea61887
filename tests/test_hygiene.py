"""Source hygiene checks that need only the standard library."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "smmskit"


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
