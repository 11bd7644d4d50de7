"""Print the size figures of ``src/maxent_hjb``: lines, settable values and
exported names.

Settable values are the parameters with a default of module-level functions
and of the methods of module-level classes, plus the fields of dataclasses and
``NamedTuple`` classes that the constructor takes with a default or a
``default_factory``. Nested functions and ``field(init=False)`` are not
counted.

Exported names are the public names that ``__init__.py`` imports from the
package's modules.

After the three counts it names each settable value as ``module:Owner.name``
(Owner is the function, the class, or ``Class.method``) and each exported name
as ``module:name``, one a line, tagged ``settable`` or ``exported``.

Usage: python tools/size_report.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "maxent_hjb"


def _defaults(fn: ast.FunctionDef, owner: str) -> list[str]:
    """``owner.param`` for each parameter of ``fn`` that has a default."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    named = positional[len(positional) - len(args.defaults) :]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [f"{owner}.{a.arg}" for a in named]


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


def settable_values(tree: ast.Module) -> list[str]:
    """The module's settable values as ``Owner.name``, in source order."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names += _defaults(node, node.name)
        elif isinstance(node, ast.ClassDef):
            has_fields = _has_fields(node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names += _defaults(item, f"{node.name}.{item.name}")
                elif has_fields and isinstance(item, ast.AnnAssign) and _field_default(item.value):
                    names.append(f"{node.name}.{item.target.id}")
    return names


def exported_names(tree: ast.Module) -> list[str]:
    """The public names the package imports from its modules, as ``module:name``."""
    return [
        f"{node.module}:{alias.asname or alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level >= 1
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    lines, settable = 0, []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        settable += [f"{path.stem}:{name}" for name in settable_values(ast.parse(text))]
    exported = exported_names(ast.parse((package / "__init__.py").read_text()))
    print(f"lines: {lines}")
    print(f"settable values: {len(settable)}")
    print(f"exported names: {len(exported)}")
    print("\n".join([*(f"settable {s}" for s in settable), *(f"exported {e}" for e in exported)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
