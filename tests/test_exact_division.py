"""Every true division in the package is exact: its left operand is a
``Rat(...)`` or ``rat(...)`` call.  The exact core keeps integral values as
ints, and two ints divide to a float, so a bare ``x / y`` could round."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "cohomatlas").glob("*.py"))
EXACT = {"Rat", "rat"}


def inexact_divisions(source: str) -> list:
    """The line numbers of the `/` and `/=` whose left operand is not a call
    of Rat or rat."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left = node.left
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            left = node.target
        else:
            continue
        if not (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
                and left.func.id in EXACT):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_division_has_an_exact_left_operand(path):
    assert inexact_divisions(path.read_text()) == []


def test_the_scan_finds_an_inexact_division():
    source = ("a = x / p\nb = Rat(x) / p\nc = rat(1) / t\nd = (x / 2) // 1\n"
              "e = x // p\nx /= 2\nf = m.rat(1) / t\ng = f'{x}/{y}'\n")
    assert inexact_divisions(source) == [1, 4, 6, 7]
