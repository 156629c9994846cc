"""The benchmark's four workloads: one pass each, plus its correctness checks.

A pass function runs inside the timed region and returns what the checks
need; a check function runs after the clock stops and returns a ``Tally`` of
operations. An operation is a ``report.json`` assertion or a check the
benchmark makes, and a failed operation is a wrong value (the pass is then not
correct). A solve that reports ``converged=False`` but whose value passes
every check is not a failed operation; it is counted in ``nonconverged``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

SWEEP_NODES = 1024
SWEEP_P = (1.0, 1.1, 1.5, 2.0, 4.0, float("inf"))
SWEEP_LEVELS = range(6)              # omega = 4^j
SWEEP_RANDOM_BAND = 4096.0
MESH_BAND = 64.0
MESH_EIGENPAIRS = 64
# A relative slack for checks that compare one solve with another: the LPs
# and IRLS stop at tolerances of order 1e-9.
REL_TOL = 1e-8
PARSEVAL_RTOL = 1e-10


@dataclass
class Tally:
    """Operations attempted, failed, the names of the failed ones, and the
    number of solves that did not converge."""

    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    nonconverged: int = 0

    def op(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong.append(name)


# -- CLI workloads ----------------------------------------------------------

def cli_argv(workload: str, seed: int, outdir: str, mesh_path: str) -> list[str]:
    common = ["--seed", str(seed), "--out", outdir]
    if workload == "circle-all":
        return ["all", "--nodes", "512", "--jmax", "4"] + common
    if workload == "circle-besov":
        return ["besov", "--nodes", "1024", "--jmax", "5", "--p", "2,4",
                "--alpha", "0.5,1,1.5"] + common
    if workload == "mesh-spectrum":
        return ["spectrum", "--manifold", "mesh", "--mesh", mesh_path,
                "--band", str(MESH_BAND)] + common
    raise ValueError(f"{workload} is not a CLI workload")


def _masked_bytes(path: str) -> bytes:
    """File contents, with the documented nondeterministic column blanked."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) != "kernel_decay.csv":
        return data
    lines = data.decode().splitlines(keepends=True)
    col = lines[0].rstrip("\r\n").split(",").index("runtime_ms")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.rstrip("\r\n").split(",")
        cells[col] = ""
        out.append(",".join(cells) + line[len(line.rstrip("\r\n")):])
    return "".join(out).encode()


def output_digests(outdir: str) -> dict:
    """sha256 of every CSV and JSON output (runtime_ms masked)."""
    return {name: hashlib.sha256(_masked_bytes(os.path.join(outdir, name))).hexdigest()
            for name in sorted(os.listdir(outdir))
            if name.endswith((".csv", ".json"))}


def output_bytes(outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(outdir, n)) for n in os.listdir(outdir))


def check_cli(workload: str, exit_code: int, outdir: str) -> Tally:
    """Exit code, every report.json assertion, and workload extras."""
    tally = Tally()
    report_path = os.path.join(outdir, "report.json")
    report = None
    if os.path.exists(report_path):
        with open(report_path) as fh:
            report = json.load(fh)
    assertions = report["assertions"] if report else []
    if exit_code != 0:
        # a failed run fails every operation it would have made
        n = 2 + len(assertions) + (workload == "mesh-spectrum")
        for i in range(n):
            tally.op(f"exit[{i}]", False)
        return tally
    tally.op("exit_code", True)
    tally.op("report.passed", bool(report and report.get("passed") is True))
    for a in assertions:
        tally.op(f"report.{a['name']}", bool(a["passed"]))
    if workload == "mesh-spectrum":
        with open(os.path.join(outdir, "spectrum.csv")) as fh:
            rows = len(fh.read().splitlines()) - 1
        tally.op("mesh.eigenpairs", rows == MESH_EIGENPAIRS)
    return tally


# -- approx-sweep -----------------------------------------------------------

def sweep_pass(bl, seed: int):
    """72 best-approximation solves on the full-band 1024-node circle."""
    model = bl.build_circle(SWEEP_NODES)
    eigsys = bl.build_eigensystem(model, float(SWEEP_NODES // 2 - 1) ** 2)
    entries = [bl.square_wave(), bl.random_bandlimited(SWEEP_RANDOM_BAND, seed)]
    runs = []
    for entry in entries:
        f = entry.build(model, eigsys)
        for p in SWEEP_P:
            results = [bl.best_approx(model, eigsys, f, 4.0 ** j, p)
                       for j in SWEEP_LEVELS]
            runs.append((entry, f, p, results))
    return model, eigsys, runs


def check_sweep(bl, model, eigsys, runs) -> Tally:
    """Value checks for every solve of the sweep, and its solver status."""
    import numpy as np

    tally = Tally()
    for entry, f, p, results in runs:
        label = f"{entry.id},p={p:g}"
        norm_f = bl.lp_norm(model, f, p)
        coefs = bl.project(eigsys, f).coefficients
        known = (entry.known_coefficients(eigsys)
                 if entry.known_coefficients is not None else None)
        for res in results:
            tag = f"{label},omega={res.omega:g}"
            e = res.error
            tally.nonconverged += not res.converged
            tally.op(f"bounds[{tag}]", 0.0 <= e <= norm_f * (1 + REL_TOL))
            k = eigsys.cutoff_index(res.omega)
            resid = f.values - eigsys.eigenfunctions[:, :k] @ coefs[:k]
            proj_err = bl.lp_norm(model, bl.GridFunction(model, resid), p)
            tally.op(f"le_projection[{tag}]", e <= proj_err * (1 + REL_TOL) + 1e-14)
            if p == 2.0 and known is not None:
                tail = float(np.sqrt(np.sum(known[k:] ** 2)))
                tally.op(f"parseval[{tag}]",
                         abs(e - tail) <= PARSEVAL_RTOL * max(tail, 1e-300))
        errs = [r.error for r in results]
        tally.op(f"monotone[{label}]",
                 all(b <= a * (1 + REL_TOL) + 1e-14 for a, b in zip(errs, errs[1:])))
    return tally
