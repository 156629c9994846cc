"""``tools/sloc.py``, the code-line counter behind the size figures of the
changelog and the roadmap."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "sloc.py")
_spec = importlib.util.spec_from_file_location("sloc", _PATH)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment counts as its code line

# a comment line


class Box:
    """Class docstring."""

    def size(self):
        """Method docstring."""
        return os.path.join(
            "a",
            # a comment inside a call
            "b")


TEXT = """a string that is
not a docstring"""
'''


def test_counts_lines_with_a_token_other_than_comments_and_docstrings():
    # import, class, def, the call's three lines without its comment line,
    # and the two lines of the assigned string
    assert sloc.count_lines(SAMPLE) == 1 + 1 + 1 + 3 + 2


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert sloc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert [line.split() for line in lines if line] == [
        ["a.py", "2"], ["b.py", "1"], ["total", "3"]]
