"""Every name a module imports is read in that module."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = (sorted((ROOT / "src" / "shockgraph").rglob("*.py"))
           + sorted((ROOT / "tests").glob("*.py")))


def _unread_imports(path):
    """Names that path imports and never loads; a package __init__.py
    re-exports the names in its __all__, and __future__ imports are
    directives."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    if path.name == "__init__.py":
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__"
                            for t in node.targets)):
                read |= set(ast.literal_eval(node.value))
    return sorted(set(imported) - read)


def test_no_unread_imports():
    assert SOURCES
    unread = {str(p.relative_to(ROOT)): names for p in SOURCES
              if (names := _unread_imports(p))}
    assert not unread
