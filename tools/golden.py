"""Golden CLI outputs: run the seven oracle configs, or diff two such runs.

    python tools/golden.py run DIR [--src SRC]
    python tools/golden.py diff A B

``run`` executes each config with ``python -m besovlab.cli`` from DIR, so
the echoed ``--out`` and ``--mesh`` paths are the same relative names in
every run. It imports besovlab from SRC (default: ``src/`` of this
checkout) with BLAS at one thread, writes the icosphere(3) OFF file the mesh
config reads (built by this checkout's ``besovlab.mesh``, so both sides of a
diff read the same mesh), and keeps each config's exit code, stdout and
stderr next to its output directory.

``diff`` prints, for each config and output file, the largest relative
drift |a - b| / max(|a|, |b|) over numeric values, overall and per value of
the row's ``p`` column (or the ``"p"`` of the enclosing JSON object or its
``"params"``), and the same for the numbers printed on stdout. Values whose
magnitude is below 1e-10 on both sides are only counted, and the
``runtime_ms`` column is skipped. It exits 1 when an exit code, stderr, the
``report.json`` pass/fail list, the set of files or a non-numeric token of
stdout or an output file differs, and 0 when only numeric drift is found.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MESH = "ico3.off"
CONFIGS = {
    "all-circle512": ["all", "--nodes", "512", "--jmax", "4"],
    "all-circle128": ["all", "--nodes", "128", "--jmax", "2"],
    "all-torus20": ["all", "--manifold", "torus2", "--nodes", "20", "--jmax", "2"],
    "all-sphere12": ["all", "--manifold", "sphere2", "--nodes", "12", "--jmax", "2"],
    "all-sphere16": ["all", "--manifold", "sphere2", "--nodes", "16", "--jmax", "2"],
    "all-ico3": ["all", "--manifold", "mesh", "--mesh", MESH, "--band", "64",
                 "--jmax", "2"],
    "besov-circle1024": ["besov", "--nodes", "1024", "--jmax", "5", "--p", "2,4",
                         "--alpha", "0.5,1,1.5"],
}
FLOOR = 1e-10
MASKED = {"runtime_ms"}
NUMBER = re.compile(r"([-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def run(outdir: str, src: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from besovlab.mesh import icosphere, write_off
    write_off(os.path.join(outdir, MESH), *icosphere(3))
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    for name, args in CONFIGS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "besovlab.cli", *args, "--trials", "8",
             "--out", name], cwd=outdir, env=env, capture_output=True, text=True)
        for ext, text in (("stdout", proc.stdout), ("stderr", proc.stderr),
                          ("exit", f"{proc.returncode}\n")):
            with open(os.path.join(outdir, f"{name}.{ext}"), "w") as fh:
                fh.write(text)
        print(f"{name}: exit {proc.returncode}")
    return 0


def _number(token):
    try:
        return float(token)
    except (TypeError, ValueError):
        return None


class Drift:
    """Largest relative drift, overall and per p, plus non-numeric mismatches."""

    def __init__(self):
        self.worst: dict = {}
        self.text: list = []
        self.tiny = 0

    def compare(self, a, b, p, where):
        x, y = _number(a), _number(b)
        if x is None or y is None or isinstance(a, bool) or isinstance(b, bool):
            if a != b:
                self.text.append(f"{where}: {a!r} != {b!r}")
            return
        if x == y:
            rel = 0.0
        else:
            big = max(abs(x), abs(y))
            if big < FLOOR:
                self.tiny += 1
                return
            rel = abs(x - y) / big if big != float("inf") else float("inf")
        for key in ("all", f"p={p}") if p is not None else ("all",):
            self.worst[key] = max(self.worst.get(key, 0.0), rel)

    def table(self, rows_a, rows_b, where):
        if len(rows_a) != len(rows_b):
            self.text.append(f"{where}: {len(rows_a)} rows != {len(rows_b)}")
            return
        header = rows_a[0] if rows_a else []
        pcol = header.index("p") if "p" in header else None
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            if len(ra) != len(rb):
                self.text.append(f"{where} row {i}: {len(ra)} fields != {len(rb)}")
                continue
            p = ra[pcol] if pcol is not None and i > 0 else None
            for j, (a, b) in enumerate(zip(ra, rb)):
                if j < len(header) and header[j] in MASKED and i > 0:
                    continue
                self.compare(a, b, p, f"{where} row {i} col {j}")

    def json(self, a, b, p, where):
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                self.text.append(f"{where}: keys {sorted(a)} != {sorted(b)}")
                return
            own = a.get("params") if isinstance(a.get("params"), dict) else a
            p = own.get("p", p) if not isinstance(own.get("p"), (dict, list)) else p
            for k in a:
                self.json(a[k], b[k], p, f"{where}.{k}")
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                self.text.append(f"{where}: {len(a)} items != {len(b)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                self.json(x, y, p, f"{where}[{i}]")
        else:
            self.compare(a, b, p, where)

    def words(self, a, b, where):
        """Text with numbers: the words must match, the numbers may drift."""
        ta, tb = NUMBER.split(a), NUMBER.split(b)
        if len(ta) != len(tb):
            self.text.append(f"{where}: the text differs")
            return
        for i, (x, y) in enumerate(zip(ta, tb)):
            if i % 2:
                self.compare(x, y, None, where)
            elif x != y:
                self.text.append(f"{where}: {x!r} != {y!r}")


def _read(path):
    with open(path) as fh:
        return fh.read()


def _rows(path):
    text = _read(path)
    if path.endswith(".csv"):
        return list(csv.reader(text.splitlines()))
    rows = [line.split() for line in text.splitlines()]
    if rows and rows[0][:1] == ["#"]:
        rows[0] = rows[0][1:]
    return rows


def _verdicts(path):
    report = json.loads(_read(path))
    return ([(a["name"], a["passed"]) for a in report.get("assertions", [])],
            report.get("passed"), report.get("aborted"))


def _summary(fname, drift):
    per_p = ", ".join(f"{k} {v:.2g}" for k, v in sorted(drift.worst.items())
                      if k != "all")
    line = f"  {fname}: max rel drift {drift.worst.get('all', 0.0):.2g}"
    line += f" ({per_p})" if per_p else ""
    if drift.tiny:
        line += f"; {drift.tiny} values below {FLOOR:g} differ"
    print(line)
    for text in drift.text[:5]:
        print(f"    text: {text}")
    if drift.text:
        print(f"    {len(drift.text)} non-numeric differences")
    return bool(drift.text)


def diff(a_dir: str, b_dir: str) -> int:
    bad = False
    for name in CONFIGS:
        codes = [_read(os.path.join(d, f"{name}.exit")).strip()
                 for d in (a_dir, b_dir)]
        same_err = (_read(os.path.join(a_dir, f"{name}.stderr"))
                    == _read(os.path.join(b_dir, f"{name}.stderr")))
        heads = [f"exit {codes[0]}/{codes[1]}",
                 f"stderr {'same' if same_err else 'DIFFERS'}"]
        bad |= codes[0] != codes[1] or not same_err
        da, db = os.path.join(a_dir, name), os.path.join(b_dir, name)
        files_a, files_b = set(os.listdir(da)), set(os.listdir(db))
        if "report.json" in files_a and "report.json" in files_b:
            same = (_verdicts(os.path.join(da, "report.json"))
                    == _verdicts(os.path.join(db, "report.json")))
            bad |= not same
            heads.append(f"pass/fail {'same' if same else 'DIFFERS'}")
        print(f"{name}: " + ", ".join(heads))
        out_a = _read(os.path.join(a_dir, f"{name}.stdout"))
        out_b = _read(os.path.join(b_dir, f"{name}.stdout"))
        if out_a == out_b:
            print("  stdout: identical")
        else:
            drift = Drift()
            drift.words(out_a, out_b, "stdout")
            bad |= _summary("stdout", drift)
        for only, side in ((files_a - files_b, "A"), (files_b - files_a, "B")):
            for fname in sorted(only):
                print(f"  {fname}: only in {side}")
                bad = True
        for fname in sorted(files_a & files_b):
            pa, pb = os.path.join(da, fname), os.path.join(db, fname)
            with open(pa, "rb") as fa, open(pb, "rb") as fb:
                if fa.read() == fb.read():
                    print(f"  {fname}: identical")
                    continue
            drift = Drift()
            if fname.endswith(".json"):
                drift.json(json.loads(_read(pa)), json.loads(_read(pb)), None,
                           fname)
            else:
                drift.table(_rows(pa), _rows(pb), fname)
            bad |= _summary(fname, drift)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run the seven configs into DIR")
    r.add_argument("dir")
    r.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the besovlab package to run")
    d = sub.add_parser("diff", help="compare two run directories")
    d.add_argument("a")
    d.add_argument("b")
    args = parser.parse_args(argv)
    if args.cmd == "run":
        return run(args.dir, args.src)
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
