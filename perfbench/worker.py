"""One benchmark pass in a fresh interpreter.

Run by ``perfbench/run.py`` as ``python -m perfbench.worker`` from the repo
root, with BLAS pinned to one thread in the environment. Times the
``besovlab`` imports (setup), then one pass of the workload (wall), then runs
the correctness checks with the clock stopped and writes one JSON result.
With ``--setup-only`` it times the imports and nothing else.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

CLI_WORKLOADS = ("circle-all", "circle-besov", "mesh-spectrum")


def import_library(workload: str):
    """Import what the workload needs; return the modules and the seconds taken."""
    t0 = time.perf_counter()
    bl = importlib.import_module("besovlab")
    cli = importlib.import_module("besovlab.cli") if workload in CLI_WORKLOADS else None
    return bl, cli, time.perf_counter() - t0


def run_pass(workload: str, seed: int, outdir: str, mesh_path: str,
             trace: bool, pass_id: str) -> dict:
    bl, cli, setup_s = import_library(workload)

    from perfbench import tracer as tracer_mod
    from perfbench import workloads as wl

    tracer = None
    if trace:
        tracer = tracer_mod.Tracer(pass_id)
        tracer.install()
    try:
        t1 = time.perf_counter()
        if cli is not None:
            exit_code = cli.main(wl.cli_argv(workload, seed, outdir, mesh_path))
        else:
            model, eigsys, runs = wl.sweep_pass(bl, seed)
        wall_s = time.perf_counter() - t1
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if cli is not None:
        tally = wl.check_cli(workload, exit_code, outdir)
        out["exit_code"] = exit_code
        out["digests"] = wl.output_digests(outdir) if exit_code == 0 else {}
        out["output_bytes"] = wl.output_bytes(outdir)
    else:
        tally = wl.check_sweep(bl, model, eigsys, runs)
        out["output_bytes"] = 0
    out.update(attempted=tally.attempted, failed=tally.failed, wrong=tally.wrong,
               nonconverged=tally.nonconverged)
    if tracer is not None:
        out["trace"] = tracer.to_json()
        out["bindings_replaced"] = tracer.bindings_replaced
    import numpy
    import scipy
    out["env"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "threads": {v: os.environ.get(v) for v in
                              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="output directory of the pass")
    ap.add_argument("--mesh", required=True, help="icosphere OFF file")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pass-id", default="0")
    ap.add_argument("--result", required=True, help="JSON file to write")
    ap.add_argument("--setup-only", action="store_true",
                    help="only time the imports of the workload")
    args = ap.parse_args(argv)
    if args.setup_only:
        res = {"setup_s": import_library(args.workload)[2]}
    else:
        res = run_pass(args.workload, args.seed, args.out, args.mesh,
                       bool(args.trace), args.pass_id)
    with open(args.result, "w") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
