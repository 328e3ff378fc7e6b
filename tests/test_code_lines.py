import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).resolve().parent / "data" / "code_lines_fixture.py"

spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)


def test_counts_code_but_not_blanks_comments_or_docstrings():
    # import, class, size, def area, the two-line string, the three lines of
    # the call, def f, x = 1, the string statement and return x.
    assert code_lines.code_lines(FIXTURE.read_text()) == 13


def test_docstrings_are_the_first_string_of_each_scope():
    source = FIXTURE.read_text()
    lines = source.splitlines()
    found = sorted(code_lines.docstring_lines(code_lines.ast.parse(source)))
    assert [lines[n - 1].strip() for n in found] == [
        '"""A module docstring', 'over two lines."""', '"""A class docstring."""',
        '"""A function docstring,', "", "over three lines.", '"""',
    ]


def test_main_prints_each_file_and_the_total(capsys):
    assert code_lines.main([str(FIXTURE), str(FIXTURE)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["13", "13", "26"]
    assert out[-1].split()[1] == "total"


def test_default_is_every_module_of_the_package(capsys):
    code_lines.main([])
    names = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    modules = sorted(p.name for p in (ROOT / "src" / "evbet").glob("*.py"))
    assert names == modules + ["total"]
