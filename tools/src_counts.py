"""Print the size of the hjot package: lines, optional parameters and dataclass fields.

Usage (no flags):

    python tools/src_counts.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/hjot next to this script's directory. For each
module (``*.py`` in PACKAGE_DIR, sorted by name) and in total it prints:

- lines: newline characters, as ``wc -l`` counts them;
- optional parameters: per function or method, its positional defaults, plus
  its keyword-only parameters whose default is not None, plus 1 for a
  ``**kwargs``;
- dataclass fields: annotated class attributes of classes decorated with
  ``@dataclass`` (with or without arguments).
"""
import ast
import os
import sys


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def counts(text: str) -> tuple[int, int, int]:
    """(lines, optional parameters, dataclass fields) of one module's source."""
    tree = ast.parse(text)
    optional = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            optional += len(args.defaults)
            optional += sum(d is not None for d in args.kw_defaults)
            optional += args.kwarg is not None
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return text.count("\n"), optional, fields


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    package = sys.argv[1] if len(sys.argv) > 1 else os.path.join(here, os.pardir, "src", "hjot")
    total = [0, 0, 0]
    print(f"{'module':<16} {'lines':>6} {'optional':>9} {'fields':>7}")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as f:
            row = counts(f.read())
        total = [t + c for t, c in zip(total, row)]
        print(f"{name:<16} {row[0]:>6} {row[1]:>9} {row[2]:>7}")
    print(f"{'total':<16} {total[0]:>6} {total[1]:>9} {total[2]:>7}")


if __name__ == "__main__":
    main()
