"""README's "Library quickstart" block runs as printed, and each value its
comments state is the value the expression above the comment returns."""

import ast
from fractions import Fraction
from pathlib import Path

from bratteli import PathRep

README = Path(__file__).resolve().parent.parent / "README.md"


def _quickstart():
    """The quickstart's source and, for each bare expression in it, (its comment, its value)."""
    text = README.read_text()
    source = text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            shown.append((lines[stmt.lineno - 1].partition("#")[2].strip(), value))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    return shown


def test_the_library_quickstart_runs_and_its_comments_hold():
    (hs_note, hs), (row_note, row), (cyl_note, cyl), (mass_note, mass), (nu_note, nu_p), \
        (verdict_note, verdict), (_, path) = _quickstart()
    assert hs_note.startswith("{1: 1, 2: 4, 3: 10, ...}")
    assert list(hs.items())[:3] == [(1, 1), (2, 4), (3, 10)]
    assert "sums to 1" in row_note
    assert list(row.values()) == [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    assert sum(row.values()) == 1
    assert "2/9" in cyl_note and cyl == Fraction(2, 9)
    assert mass_note.startswith("1 ") and mass == 1
    assert nu_note.startswith("4/81") and nu_p == Fraction(4, 81)
    assert verdict_note == "('Finite', Fraction(1, 6))"
    assert verdict == ("Finite", Fraction(1, 6))
    assert isinstance(path, PathRep)
