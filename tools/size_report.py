"""Print the size figures of ``src/maxent_hjb``: lines, settable values and
exported names.

Settable values are the parameters with a default of module-level functions
and of the methods of module-level classes, plus the fields of dataclasses and
``NamedTuple`` classes that the constructor takes with a default or a
``default_factory``. Nested functions and ``field(init=False)`` are not
counted.

Exported names are the public names that ``__init__.py`` imports from the
package's modules.

Usage: python tools/size_report.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "maxent_hjb"


def _defaults(fn: ast.FunctionDef) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _name(node: ast.expr) -> str | None:
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", getattr(target, "attr", None))


def _has_fields(cls: ast.ClassDef) -> bool:
    """Whether the class's annotated assignments are constructor parameters."""
    return any(_name(d) == "dataclass" for d in cls.decorator_list) or any(
        _name(b) == "NamedTuple" for b in cls.bases
    )


def _field_default(value: ast.expr | None) -> bool:
    """Whether a field's right-hand side gives the constructor a default."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        keywords = {kw.arg: kw.value for kw in value.keywords}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return False
        return "default" in keywords or "default_factory" in keywords
    return True


def settable_values(tree: ast.Module) -> int:
    count = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef):
            has_fields = _has_fields(node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    count += _defaults(item)
                elif has_fields and isinstance(item, ast.AnnAssign):
                    count += _field_default(item.value)
    return count


def exported_names(tree: ast.Module) -> int:
    return sum(
        not (alias.asname or alias.name).startswith("_")
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level >= 1
        for alias in node.names
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    lines = settable = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        settable += settable_values(ast.parse(text))
    print(f"lines: {lines}")
    print(f"settable values: {settable}")
    print(f"exported names: {exported_names(ast.parse((package / '__init__.py').read_text()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
