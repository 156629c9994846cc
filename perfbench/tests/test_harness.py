"""Self-tests of the benchmark harness: tracer wiring, failure counts, restore.

Run with ``python -m pytest perfbench/tests`` from the repo root.
"""

import dataclasses
import inspect
import json
import os
import sys

import numpy as np
import pytest

import besovlab as bl
from besovlab import cli
from perfbench import run, tracer, workloads


def _bindings():
    """Every function object reachable from a besovlab namespace or dict."""
    out = {}
    for name, mod in sys.modules.items():
        if name != "besovlab" and not name.startswith("besovlab."):
            continue
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj):
                out[(name, attr)] = obj
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if inspect.isfunction(val):
                        out[(name, attr, key)] = val
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, val in vars(obj).items():
                    if inspect.isfunction(val):
                        out[(name, attr, "." + meth)] = val
    return out


@pytest.fixture
def traced_all(tmp_path):
    tr = tracer.Tracer("test")
    tr.install()
    try:
        code = cli.main(["all", "--nodes", "128", "--jmax", "2",
                         "--out", str(tmp_path)])
    finally:
        tr.uninstall()
    return code, tr.to_json()


def test_best_approx_spans_sit_under_run_approx(traced_all):
    code, trace = traced_all
    assert code == 0
    spans = trace["spans"]
    under_approx = []
    for i, span in enumerate(spans):
        if span[0] != "approx.best_approx":
            continue
        up = tracer.ancestors(spans, i)
        cli_parent = next(n for n in up if n.startswith("cli.run_"))
        assert cli_parent in ("cli.run_approx", "cli.run_jackson", "cli.run_besov")
        if cli_parent == "cli.run_approx":
            # the analysis layer sits between the experiment and the solver
            assert up[:2] == ["analysis.errors_at_cutoffs", "cli.run_approx"]
            under_approx.append(span)
    assert under_approx
    assert all(s[4]["solver"] in tracer.SOLVERS for s in under_approx)
    m = tracer.layer_metrics(trace)
    assert m["approx.best_approx.calls"] == len(
        [s for s in spans if s[0] == "approx.best_approx"])
    assert m["analysis.cache.lookups"] > 0 and 0 < m["analysis.cache.hit_ratio"] < 1
    assert m["spectrum.save_eigensystem.bytes"] > 0
    assert m["cli.run_approx.self_s"] < m["cli.run_approx.s"]


def test_per_layer_metrics_match_benchmark_json(traced_all):
    _, trace = traced_all
    fake = {"trace": trace, "output_bytes": 1, "wall_s": 1.0}
    names = set(run.layer_summary("circle-all", [fake], 1.0))
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert names == declared


def test_tracer_rebinds_import_time_names():
    orig = bl.best_approx
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = bl.best_approx
        assert wrapped is not orig and wrapped.__wrapped__ is orig
        import besovlab.analysis as analysis
        import besovlab.approx as approx
        assert approx.best_approx is wrapped and analysis.best_approx is wrapped
        assert cli.EXPERIMENTS["approx"] is cli.run_approx
    finally:
        tr.uninstall()


def _sweep_runs(p_values=(1.0, 1.5, 2.0)):
    model = bl.build_circle(64)
    eigsys = bl.build_eigensystem(model, 31.0 ** 2)
    entry = bl.random_bandlimited(64.0, 3)
    f = entry.build(model, eigsys)
    return model, eigsys, [(entry, f, p, [bl.best_approx(model, eigsys, f, 4.0 ** j, p)
                                          for j in range(3)]) for p in p_values]


def test_nonconverged_solve_is_counted_but_not_failed():
    model, eigsys, runs = _sweep_runs()
    good = workloads.check_sweep(bl, model, eigsys, runs)
    assert good.failed == 0 and not good.wrong and good.nonconverged == 0
    entry, f, p, results = runs[1]
    stub = [dataclasses.replace(results[0], converged=False)] + results[1:]
    runs[1] = (entry, f, p, stub)
    bad = workloads.check_sweep(bl, model, eigsys, runs)
    assert bad.attempted == good.attempted
    assert bad.failed == 0 and bad.nonconverged == 1   # a status, not a wrong value

    def one_pass(tally):
        return {"attempted": tally.attempted, "failed": tally.failed,
                "wrong": tally.wrong, "nonconverged": tally.nonconverged,
                "traced": False, "wall_s": 1.0, "setup_s": 0.5,
                "peak_rss_mb": 100.0, "env": {}}

    after = run.summarize("approx-sweep", [one_pass(bad), one_pass(bad)], trace=False)
    assert after["fail_frac"] == 0.0 and after["correct"]
    assert after["nonconverged"] == 2


def test_setup_probes_join_the_setup_median():
    one = {"attempted": 1, "failed": 0, "wrong": [], "traced": False,
           "wall_s": 1.0, "setup_s": 0.9, "peak_rss_mb": 100.0, "env": {}}
    summary = run.summarize("circle-all", [one], trace=False, setup_probes=[0.5, 0.6])
    assert summary["setup_s"] == 0.6
    assert summary["samples"]["setup_s"] == [0.9, 0.5, 0.6]


def test_wrong_value_is_not_correct():
    model, eigsys, runs = _sweep_runs((2.0,))
    entry, f, p, results = runs[0]
    runs[0] = (entry, f, p, [dataclasses.replace(results[0], error=results[0].error * 1.01)]
               + results[1:])
    tally = workloads.check_sweep(bl, model, eigsys, runs)
    assert "parseval[randband-w64-s3,p=2,omega=1]" in tally.wrong
    assert tally.failed == len(tally.wrong)


def test_untraced_runs_use_original_bindings(tmp_path):
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    changed = {k for k, v in _bindings().items() if before.get(k) is not v}
    assert ("besovlab", "best_approx") in changed
    assert ("besovlab.cli", "EXPERIMENTS", "approx") in changed
    assert ("besovlab.analysis", "ErrorCache", ".lookup") in changed
    tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    n_spans = len(tr.spans)
    model, eigsys, _ = _sweep_runs((2.0,))
    f = bl.random_bandlimited(16.0, 1).build(model, eigsys)
    bl.best_approx(model, eigsys, f, 4.0, 1.0)
    assert len(tr.spans) == n_spans


def test_kernel_decay_runtime_column_is_masked(tmp_path):
    rows = "t,N,C,max_abs_K,runtime_ms\n1,3,0.5,2,{}\n"
    a, b = tmp_path / "a", tmp_path / "b"
    for d, ms in ((a, "12.5"), (b, "13.75")):
        d.mkdir()
        (d / "kernel_decay.csv").write_text(rows.format(ms))
        (d / "report.json").write_text("{}")
    assert workloads.output_digests(str(a)) == workloads.output_digests(str(b))
    (b / "report.json").write_text("{ }")
    assert workloads.output_digests(str(a)) != workloads.output_digests(str(b))


def test_tail_percentile_needs_eleven_samples():
    assert run.tail_percentile(list(range(10))) is None
    tail = run.tail_percentile(list(range(20)))
    assert tail["pct"] == 50.0 and tail["value"] == 9
    assert np.sum(np.arange(20) > tail["value"]) == 10
