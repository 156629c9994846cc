import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_tour() -> str:
    """The fenced Python block of README's "Library tour" section."""
    text = README.read_text()
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_tour_runs(capsys):
    exec(compile(library_tour(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
