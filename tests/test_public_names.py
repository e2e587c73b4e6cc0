"""Every public module-level function and class of the package has a caller
in the package: a public form that only tests use is a second copy of
pipeline code, and its tests check code that no stage runs."""

import ast
from pathlib import Path

import spkdbn

PACKAGE = Path(spkdbn.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _names(node) -> set[str]:
    """Every identifier that node and its descendants load, and every
    attribute they look up on a package module's name (`evaluation.fuse`).
    An attribute of any other object (`report.det_points`) is not a use of
    a module-level name that it happens to share."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in MODULES}


def test_every_public_function_and_class_is_named_outside_its_own_definition():
    modules = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    statements = [stmt for module in modules for stmt in module.body]
    assert statements
    unused = []
    for definition in statements:
        if (isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                and not definition.name.startswith("_")
                and not any(definition.name in _names(stmt)
                            for stmt in statements if stmt is not definition)):
            unused.append(definition.name)
    assert not unused, f"no caller in the package: {', '.join(unused)}"
