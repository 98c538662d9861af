"""Source guards: every module-level private name of the package is used,
every public function and class is read by the package or the benchmark, and
no module imports scipy when it is imported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qdtuner"


def _defined(stmt) -> list[str]:
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced(node) -> set[str]:
    """The names a node reads, bare (`_x`) or as attributes (`cfg._x`)."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    }


def test_every_private_module_name_is_referenced():
    # a private name counts as used when a statement other than the one that
    # binds it reads it, in any module; a recursive call alone does not count
    statements = [stmt for path in sorted(SRC.glob("*.py")) for stmt in ast.parse(path.read_text("utf-8")).body]
    private = {
        (name, id(stmt))
        for stmt in statements
        for name in _defined(stmt)
        if name.startswith("_") and not name.startswith("__")
    }
    reads = [(id(stmt), _referenced(stmt)) for stmt in statements]
    unused = sorted(
        name for name, home in private if not any(name in names for where, names in reads if where != home)
    )
    assert not unused, f"private names referenced nowhere else in src/qdtuner: {unused}"


# public names that nothing in the package or the benchmark reads, each kept
# for a reason; cli's cmd_* are dispatched by name and need no entry
UNREAD_PUBLIC = {
    "energy_residual": "the tests' energy check, independent of the solver's own",
    "absorbed_power_for_temperature": "acceptance criterion 7's absorbed power",
    "beta_for_width": "the width law that ROADMAP item 7 wires into the calibration",
    "default_layout": "the layout of the tests",
}


def test_every_public_function_and_class_is_read():
    # a public function or class counts as used when a statement of the
    # package other than its own, or of bench/, reads its name; a helper
    # that only the tests call is dead code
    statements = [stmt for path in sorted(SRC.glob("*.py")) for stmt in ast.parse(path.read_text("utf-8")).body]
    bench = [stmt for path in sorted(ROOT.glob("bench/**/*.py")) for stmt in ast.parse(path.read_text("utf-8")).body]
    reads = [(id(stmt), _referenced(stmt)) for stmt in statements + bench]
    unread = sorted(
        stmt.name
        for stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith(("_", "cmd_"))
        and not any(stmt.name in names for where, names in reads if where != id(stmt))
    )
    # an allowed name that something now reads leaves the allowlist too
    assert unread == sorted(UNREAD_PUBLIC), f"public names read nowhere in src/qdtuner or bench/: {unread}"


def _import_time_nodes(node):
    """The nodes that run when the module is imported: all but the bodies of
    its functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_no_module_imports_scipy_when_it_is_imported():
    # importing scipy's sparse stack takes about 0.45 s, over half of a cold
    # tuner run; only the functions that factor a grid of another shape than
    # a rasterized device's import it, where they need it
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] == "scipy"]
    assert not found, f"module-level scipy imports in src/qdtuner: {found}"
