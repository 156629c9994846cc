"""besovlab benchmark harness.

    python3 perfbench/run.py --workload circle-all --seed 1 --seconds 30 --trace 0

Closed loop with one client: this process starts one worker interpreter at a
time (``perfbench/worker.py``), waits for it, and starts the next while the
time budget lasts. Each worker does one pass of the workload with BLAS pinned
to one thread. ``--trace 0`` reports the end-to-end metrics of untraced
passes, with more set-up samples from import-only workers that fill the
budget the last pass leaves; ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics plus the tracing overhead. ``--workload all`` runs every
workload in turn. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")
sys.path.insert(0, ROOT)

from perfbench import tracer  # noqa: E402

WORKLOADS = ("circle-all", "approx-sweep", "circle-besov", "mesh-spectrum")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0          # a run must end well within 180 s
MIN_WORKER_TIMEOUT_S = 20.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def tail_percentile(xs):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(xs)
    if n < 11:
        return None
    return {"pct": 100.0 * (n - 10) / n, "value": sorted(xs)[n - 11]}


def environment(seen: dict) -> dict:
    """Thread settings and versions seen by the worker, plus the machine."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return dict(seen, python=platform.python_version(),
                nproc=len(os.sched_getaffinity(0)), cpu_model=cpu, git_commit=commit)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


def prepare(mesh_path: str) -> None:
    """Untimed set-up: byte-compile the sources and write the icosphere."""
    env = worker_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC,
                    os.path.join(ROOT, "perfbench")], cwd=ROOT, env=env,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    if os.path.exists(mesh_path):
        return
    tmp = mesh_path + ".tmp"
    subprocess.run([sys.executable, "-c",
                    "import sys, besovlab as bl; bl.write_off(sys.argv[1], *bl.icosphere(4))",
                    tmp], cwd=ROOT, env=env, check=True, timeout=120)
    os.replace(tmp, mesh_path)


def run_worker(workload, seed, trace, pass_dir, out_dir, mesh_path, timeout,
               setup_only=False) -> dict:
    os.makedirs(pass_dir)
    if not setup_only:
        # every pass of a run writes to the same output directory, so the
        # configuration echoed into report.json is the same on each pass
        shutil.rmtree(out_dir, ignore_errors=True)
    result_path = os.path.join(pass_dir, "result.json")
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--out", out_dir,
           "--mesh", mesh_path, "--trace", str(int(trace)),
           "--pass-id", os.path.basename(pass_dir), "--result", result_path]
    if setup_only:
        cmd.append("--setup-only")
    with open(os.path.join(pass_dir, "worker.log"), "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    if code == 0 and os.path.exists(result_path):
        with open(result_path) as fh:
            return json.load(fh)
    with open(os.path.join(pass_dir, "worker.log")) as fh:
        log_tail = fh.read()[-2000:]
    return {"crashed": f"worker exit {code}", "log_tail": log_tail}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 mesh_path: str) -> dict:
    run_dir = os.path.join(WORK, f"{workload}-s{seed}-t{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.monotonic()
    deadline = start + seconds
    passes, probes, durations = [], [], []
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        timeout = max(MIN_WORKER_TIMEOUT_S, RUN_LIMIT_S - (t0 - start))
        res = run_worker(workload, seed, traced,
                         os.path.join(run_dir, f"pass{len(passes)}"),
                         os.path.join(run_dir, "out"), mesh_path, timeout)
        res["traced"] = traced
        passes.append(res)
        durations.append(time.monotonic() - t0)
        if "crashed" in res:
            break
        # start another pass only if even the slowest pass so far would
        # still end within the budget
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.monotonic() + max(durations) > min(deadline, start + RUN_LIMIT_S):
            break
    # more set-up samples: import-only workers while the budget lasts
    probe_s = [1.0]
    while not trace and "crashed" not in passes[-1]:
        if time.monotonic() + max(probe_s) > min(deadline, start + RUN_LIMIT_S):
            break
        t0 = time.monotonic()
        probe = run_worker(workload, seed, False,
                           os.path.join(run_dir, f"probe{len(probes)}"),
                           os.path.join(run_dir, "out"), mesh_path,
                           MIN_WORKER_TIMEOUT_S, setup_only=True)
        probe_s.append(time.monotonic() - t0)
        if "crashed" in probe:
            passes.append(probe)
            break
        probes.append(probe["setup_s"])
    summary = summarize(workload, passes, trace, probes)
    summary["run_s"] = time.monotonic() - start
    shutil.rmtree(run_dir, ignore_errors=True)
    return summary


def summarize(workload: str, passes: list, trace: bool, setup_probes=()) -> dict:
    """Correctness and end-to-end medians of a run; ``setup_probes`` are the
    import times of the import-only workers."""
    attempted = failed = 0
    wrong = []
    ok = [p for p in passes if "crashed" not in p]
    for p in passes:
        if "crashed" in p:
            # a pass that died fails every operation a full pass makes
            n = max([q["attempted"] for q in ok] or [1])
            attempted += n
            failed += n
            wrong.append(p["crashed"])
        else:
            attempted += p["attempted"]
            failed += p["failed"]
            wrong += p["wrong"]
    digests = [p["digests"] for p in ok if p.get("digests")]
    for later in digests[1:]:
        for name in sorted(set(digests[0]) | set(later)):
            attempted += 1
            if digests[0].get(name) != later.get(name):
                failed += 1
                wrong.append(f"not byte-identical across passes: {name}")
    plain = [p for p in ok if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    setups = [p["setup_s"] for p in plain] + list(setup_probes)
    summary = {
        "workload": workload,
        "correct": not wrong and bool(ok),
        "attempted": attempted, "failed": failed, "wrong": wrong[:20],
        "fail_frac": failed / attempted if attempted else 1.0,
        "nonconverged": sum(p.get("nonconverged", 0) for p in ok),
        "passes": len(passes), "untraced_passes": len(plain),
        "wall_s": _median(walls), "wall_tail": tail_percentile(walls),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in plain]),
        "samples": {"wall_s": walls, "setup_s": setups,
                    "peak_rss_mb": [p["peak_rss_mb"] for p in plain]},
        "worker_env": ok[0]["env"] if ok else {},
    }
    if any("crashed" in p for p in passes):
        summary["crash_log"] = next(p["log_tail"] for p in passes if "crashed" in p)
    if trace:
        summary["layers"] = layer_summary(workload, [p for p in ok if p["traced"]],
                                          summary["wall_s"])
    return summary


def layer_summary(workload: str, traced: list, plain_wall: float) -> dict:
    """Median over traced passes of each per-layer metric."""
    if not traced:
        return {}
    top = (("approx.best_approx",) if workload == "approx-sweep" else tracer.CLI_TOP)
    per_pass = []
    for p in traced:
        m = tracer.layer_metrics(p["trace"])
        m["cli.output_bytes"] = p["output_bytes"]
        m["trace.coverage_frac"] = tracer.top_level_s(p["trace"], top) / p["wall_s"]
        per_pass.append(m)
    out = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
    traced_wall = _median([p["wall_s"] for p in traced])
    out["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return out


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def result_line(summary: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in sorted(summary["layers"].items())}
    else:
        metrics = {"wall_s": {"value": summary["wall_s"], "unit": "s"},
                   "setup_s": {"value": summary["setup_s"], "unit": "s"},
                   "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"}}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def print_report(summary: dict, trace: bool) -> None:
    w = summary["workload"]
    tail = summary["wall_tail"]
    tail_txt = (f"p{tail['pct']:.0f}={tail['value']:.4f} s" if tail
                else "no percentile has ten samples beyond it")
    print(f"== {w}: {summary['passes']} passes ({summary['untraced_passes']} untraced)"
          f" in {summary['run_s']:.1f} s")
    print(f"{w}  wall_s       {summary['wall_s']:.4f} s   (median of "
          f"{summary['untraced_passes']}; {tail_txt})")
    print(f"{w}  setup_s      {summary['setup_s']:.4f} s   (median of "
          f"{len(summary['samples']['setup_s'])})")
    print(f"{w}  peak_rss_mb  {summary['peak_rss_mb']:.3f} MB")
    print(f"{w}  fail_frac    {summary['fail_frac']:.6f} ratio   "
          f"({summary['failed']} of {summary['attempted']} operations)")
    if summary["nonconverged"]:
        print(f"{w}  nonconverged {summary['nonconverged']} solves returned converged=False"
              f" over {summary['passes']} passes (values still checked)")
    for name in summary["wrong"]:
        print(f"{w}  WRONG: {name}")
    if "crash_log" in summary:
        print(summary["crash_log"])
    if trace:
        for k, v in sorted(summary["layers"].items()):
            print(f"{w}  {k:40s} {v:.6g} {unit_of(k)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="time budget of one run; passes start while it lasts")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "besovlab", "__init__.py")):
        print(f"error: besovlab sources not found under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    mesh_path = os.path.join(WORK, "icosphere4.off")
    prepare(mesh_path)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    lines = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, trace, mesh_path)
        summary["environment"] = environment(summary["worker_env"])
        with open(os.path.join(WORK, "results",
                               f"{name}-seed{args.seed}-trace{int(trace)}.json"), "w") as fh:
            json.dump(summary, fh, indent=1)
        print_report(summary, trace)
        lines.append(result_line(summary, trace))
    env = summary["environment"]
    print("environment: " + json.dumps(env, sort_keys=True))
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines),
            "attempted": sum(r["attempted"] for r in lines),
            "failed": sum(r["failed"] for r in lines),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, lines)
                        for k, v in r["metrics"].items()}}))
    return 0 if all(r["correct"] for r in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
