import fnmatch
import re
from pathlib import Path

from besovlab.cli import build_parser, main, parse_config_file, resolve_config

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    """The text of a README section, up to the next heading of any level."""
    return re.split(r"\n#{2,} ", README.read_text().split(title, 1)[1], maxsplit=1)[0]


def library_tour() -> str:
    """The fenced Python block of README's "Library tour" section."""
    blocks = re.findall(r"```python\n(.*?)```", section("## Library tour"), flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_library_tour_runs(capsys):
    exec(compile(library_tour(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4


def test_example_config_resolves(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", section("### Configuration files"),
                        flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "example.cfg"
    path.write_text(blocks[0])
    parsed = parse_config_file(path)
    cfg = resolve_config(build_parser().parse_args(["all", "--config", str(path)]))
    assert {key: cfg[key] for key in parsed} == {
        "manifold": "circle", "nodes": 512, "band": 1024.0, "alpha": [0.5, 1.0],
        "p": [1.0, 2.0, float("inf")], "q": [1.0, 2.0, float("inf")], "k": 2,
        "jmax": 4, "seed": 1234, "trials": 24, "out": "results"}
    assert cfg["band"] >= 4.0 ** cfg["jmax"]


def test_recognized_flags_match_the_parser():
    text = section("### Configuration files").split("Recognized flags:", 1)[1]
    documented = re.findall(r"`(--[a-z-]+)", text)
    assert len(documented) == len(set(documented))
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    for sub in commands.values():
        flags = {o for a in sub._actions for o in a.option_strings
                 if o.startswith("--") and o != "--help"}
        assert set(documented) == flags


def test_output_list_names_what_a_run_writes(tmp_path):
    # the file names and patterns of the "Each run writes" list, e.g. `*.csv`
    listed = re.split(r"\n\n(?![*] )", section("Each run writes"))[0]
    kinds = set(re.findall(r"`([\w*]+\.\w+)`", listed))
    out = tmp_path / "out"
    assert main(["all", "--nodes", "128", "--jmax", "2", "--out", str(out)]) == 0
    written = [p.name for p in out.iterdir()]
    for name in written:
        assert [k for k in kinds if fnmatch.fnmatch(name, k)], name
    for kind in kinds:
        assert fnmatch.filter(written, kind), kind
