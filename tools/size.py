"""Print the size of the uotlab package: source lines, settable parameters
and classes.

    python3 tools/size.py

Settable parameters are the arguments (``self`` and ``cls`` excluded) of
every function or method whose name has no leading underscore, nested
definitions included, plus the flags the command-line parser declares with
``add_argument``.  Classes are every ``class`` statement, nested ones
included: value types, exceptions and the like.
"""

from __future__ import annotations

import ast
from pathlib import Path


def count(src: Path) -> dict:
    lines = arguments = with_default = flags = classes = 0
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines += len(text.splitlines())
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                a = node.args
                names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs]
                names += [arg.arg for arg in (a.vararg, a.kwarg) if arg is not None]
                arguments += sum(name not in ("self", "cls") for name in names)
                with_default += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                flags += 1
            elif isinstance(node, ast.ClassDef):
                classes += 1
    return {"lines": lines, "parameters": arguments + flags,
            "with_default": with_default, "cli_flags": flags, "classes": classes}


def main() -> None:
    c = count(Path(__file__).parent.parent / "src" / "uotlab")
    print(f"src/uotlab lines: {c['lines']}")
    print(f"settable parameters: {c['parameters']} ({c['cli_flags']} CLI flags; "
          f"{c['with_default']} function arguments have a default)")
    print(f"classes: {c['classes']}")


if __name__ == "__main__":
    main()
