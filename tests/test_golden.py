"""``tools/golden.py diff``, the oracle for output-preserving changes, on
synthetic run directories of the seven configs."""

import importlib.util
import json
import os
import shutil

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "golden.py")
_spec = importlib.util.spec_from_file_location("golden", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

FILES_PER_CONFIG = 4  # stdout, report.json, besov.csv, kernel_decay.csv


def write_run(root):
    root.mkdir()
    for i, name in enumerate(golden.CONFIGS):
        (root / f"{name}.exit").write_text(f"{i % 2}\n")
        (root / f"{name}.stdout").write_text(f"{name}: ratio 0.{i + 1}25 of 8\n")
        (root / f"{name}.stderr").write_text("")
        out = root / name
        out.mkdir(parents=True)
        report = {"passed": i % 2 == 0,
                  "assertions": [{"name": "besov.continuous", "passed": True,
                                  "value": 1.5},
                                 {"name": "bernstein.stable", "passed": i % 2 == 0,
                                  "value": 2.25}]}
        (out / "report.json").write_text(json.dumps(report, indent=2))
        (out / "besov.csv").write_text("id,p,a_norm\nlac,2,1.25\nlac,4,3.5\n")
        (out / "kernel_decay.csv").write_text("t,C,runtime_ms\n0.5,94.3,12.1\n")


@pytest.fixture
def runs(tmp_path):
    a = tmp_path / "a"
    write_run(a)
    b = tmp_path / "b"
    shutil.copytree(a, b)
    return a, b


def diff(runs, capsys):
    code = golden.main(["diff", str(runs[0]), str(runs[1])])
    return code, capsys.readouterr().out.splitlines()


def test_copies_are_identical(runs, capsys):
    code, lines = diff(runs, capsys)
    assert code == 0
    n = len(golden.CONFIGS) * FILES_PER_CONFIG
    assert lines[-1] == f"{n} outputs identical, 0 with drift"


def test_runtime_ms_alone_is_masked(runs, capsys):
    name = next(iter(golden.CONFIGS))
    (runs[1] / name / "kernel_decay.csv").write_text("t,C,runtime_ms\n0.5,94.3,57.9\n")
    code, lines = diff(runs, capsys)
    assert code == 0
    assert "  kernel_decay.csv: identical (runtime_ms masked)" in lines
    n = len(golden.CONFIGS) * FILES_PER_CONFIG
    assert lines[-1] == f"{n} outputs identical, 0 with drift"


def test_numeric_drift_alone_passes_with_a_drift_line(runs, capsys):
    name = list(golden.CONFIGS)[-1]
    (runs[1] / name / "besov.csv").write_text("id,p,a_norm\nlac,2,1.25\nlac,4,3.5000007\n")
    code, lines = diff(runs, capsys)
    assert code == 0
    drift = [line for line in lines if line.startswith("  besov.csv: max rel drift")]
    assert len(drift) == 1 and "p=4 2e-07" in drift[0] and "p=2 0" in drift[0]
    n = len(golden.CONFIGS) * FILES_PER_CONFIG
    assert lines[-1] == f"{n - 1} outputs identical, 1 with drift"


def test_a_flipped_verdict_fails(runs, capsys):
    name = list(golden.CONFIGS)[1]
    path = runs[1] / name / "report.json"
    report = json.loads(path.read_text())
    report["assertions"][1]["passed"] = not report["assertions"][1]["passed"]
    path.write_text(json.dumps(report, indent=2))
    code, lines = diff(runs, capsys)
    assert code == 1
    assert any(line.startswith(f"{name}: ") and "pass/fail DIFFERS" in line
               for line in lines)


def test_a_changed_exit_code_fails(runs, capsys):
    name = list(golden.CONFIGS)[2]
    (runs[1] / f"{name}.exit").write_text("2\n")
    code, lines = diff(runs, capsys)
    assert code == 1
    assert f"{name}: exit 0/2, stderr same, pass/fail same" in lines


@pytest.mark.parametrize("side", ["A", "B"])
def test_an_output_directory_on_one_side_only_fails(runs, capsys, side):
    # a config that exits 2 before it makes --out leaves no directory
    name = list(golden.CONFIGS)[3]
    gone = runs[1] if side == "A" else runs[0]
    shutil.rmtree(gone / name)
    (gone / f"{name}.exit").write_text("2\n")
    code, lines = diff(runs, capsys)
    assert code == 1
    assert f"  {name}/: only in {side}" in lines
    assert f"  report.json: only in {side}" in lines


@pytest.mark.parametrize("ext", ["stdout", "stderr", "exit"])
@pytest.mark.parametrize("side", ["A", "B"])
def test_a_config_file_on_one_side_only_fails(runs, capsys, side, ext):
    name = "all-torus20"
    gone = runs[1] if side == "A" else runs[0]
    (gone / f"{name}.{ext}").unlink()
    code, lines = diff(runs, capsys)
    assert code == 1
    assert f"  {name}.{ext}: only in {side}" in lines


@pytest.mark.parametrize("extra", ["nearly", "x2"])
def test_a_changed_stdout_line_is_named_with_both_texts(runs, capsys, extra):
    # "x2" adds a number to the line, "nearly" only a word
    name = list(golden.CONFIGS)[4]
    first = (runs[0] / f"{name}.stdout").read_text()
    (runs[0] / f"{name}.stdout").write_text(first + "level 2 error 0.5\n")
    (runs[1] / f"{name}.stdout").write_text(first + f"level 2 error {extra} 0.5\n")
    code, lines = diff(runs, capsys)
    assert code == 1
    assert (f"    text: stdout line 2: 'level 2 error 0.5' != "
            f"'level 2 error {extra} 0.5'") in lines
    assert "    1 non-numeric differences" in lines


def test_a_long_stdout_line_is_cut(runs, capsys):
    name = list(golden.CONFIGS)[5]
    long_line = "word " * 40
    (runs[1] / f"{name}.stdout").write_text(long_line + "\n")
    code, lines = diff(runs, capsys)
    assert code == 1
    cut = repr(long_line[:golden.CLIP - 3] + "...")
    assert any(line.startswith("    text: stdout line 1: ") and line.endswith(cut)
               for line in lines)
