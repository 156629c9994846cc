"""Experiment runner: reproducible reports for every verifier in the library.

Subcommands mirror the library surface (spectrum, filters, kernel-decay,
approx, jackson, bernstein, young, besov, all). Each writes CSV + gnuplot
.dat files plus a JSON summary (report.json) with one pass/fail entry per
assertion, and exits 1 if any assertion failed, 2 on configuration errors.
An experiment that raises stops the run; report.json is still written, with
the assertions made so far, ``passed`` false and an ``aborted`` entry naming
the experiment and the error, and the exit code is 2 for a configuration
error (``ConfigError``, ``ValueError``) and 1 for any other exception.
The model and eigensystem are built once, before the first experiment, and
only for experiments that read them: ``filters`` builds neither. Each
experiment takes the eigensystem alone and reads the model it holds. A model or
eigensystem too large for memory is a configuration error (exit 2).

Configuration is a plain-text file of ``key = value`` lines ('#' comments,
comma-separated lists); command-line flags override file values, and both are
read by the parsers of ``OPTIONS``. Outputs are
written atomically (temp file + rename) and are bit-identical across runs
with the same config and seeds, except for the runtime_ms column of the
kernel-decay CSV.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import traceback

import numpy as np

from . import corpus as corpus_mod
from .analysis import (BesovParams, ErrorCache, a_norm, a_norm_continuous,
                       bandlimited_coefficients, bernstein_ratio,
                       errors_at_cutoffs, interpolation_norm, is_bandlimited,
                       jackson_ratios, lp_comparator_norm, roundoff_floor)
from .filters import F, check_partition, f_j
from .manifold import (GridFunction, build_circle, build_sphere2, build_torus2,
                       resolved_frequency)
from .mesh import load_mesh
from .operators import (KernelMatrix, build_kernel, fit_decay_constant,
                        operator_norm_estimate, weighted_decay_integral,
                        young_apply_check)
from .spectrum import (CoefVector, _atomic_file, build_eigensystem,
                       check_orthonormality, save_eigensystem)


class ConfigError(Exception):
    pass


def _grid(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


# Each manifold by name: its model and its default band, built from the
# config. The builders are called by their module names at call time, so a
# rebinding of those names (the benchmark's tracer) sees every build.
MANIFOLDS = {
    "circle": lambda cfg: (build_circle(cfg["nodes"]),
                           float(resolved_frequency(cfg["nodes"])) ** 2),
    "torus2": lambda cfg: (build_torus2(cfg["nodes"]),
                           float(resolved_frequency(cfg["nodes"])) ** 2),
    "sphere2": lambda cfg: (build_sphere2(cfg["nodes"]),
                            float(cfg["nodes"] * (cfg["nodes"] + 1))),
    "mesh": lambda cfg: (load_mesh(cfg["mesh"]), 4.0 ** cfg["jmax"]),
}

# Each setting, in report.json's ``config`` order: its default, the parser
# that reads its text from a flag or a config-file line alike, and its help.
OPTIONS = {
    "manifold": ("circle", str, " | ".join(MANIFOLDS)),
    "nodes": (256, int, "nodes (circle), per-dim (torus), band (sphere)"),
    "band": (None, float, "eigenvalue band limit"),
    "mesh": (None, str, "OFF mesh path (manifold=mesh)"),
    "alpha": ([0.5, 1.0], _grid, "comma-separated smoothness grid"),
    "p": ([1.0, 2.0, float("inf")], _grid,
          "comma-separated integrability grid (inf allowed)"),
    "q": ([1.0, 2.0, float("inf")], _grid,
          "comma-separated summability grid (inf allowed)"),
    "k": (2, int, "Sobolev order"),
    "jmax": (3, int, "dyadic truncation level"),
    "seed": (1234, int, "random seed"),
    "trials": (24, int, "randomized trial count"),
    "out": ("besovlab-out", str, "output directory"),
}

# the cutoffs of the Bernstein sweep that lie within the band
BERNSTEIN_CUTOFFS = (4.0, 16.0, 64.0)

# admissible values of each parameter grid; NaN fails every comparison
_GRID_RULES = {"alpha": (lambda v: 0 < v < float("inf"), "positive and finite"),
               "p": (lambda v: v >= 1, "at least 1 (inf allowed)"),
               "q": (lambda v: v > 0, "positive (inf allowed)")}


def parse_config_file(path) -> dict:
    """Parse ``key = value`` lines into their unparsed text, by key."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in OPTIONS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                out[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    """The defaults, overridden by the config file, overridden by the flags."""
    cfg = {key: default for key, (default, _, _) in OPTIONS.items()}
    given = [parse_config_file(args.config) if args.config else {},
             {key: getattr(args, key) for key in OPTIONS}]
    for texts in given:
        for key, text in texts.items():
            if text is None:
                continue
            try:
                cfg[key] = OPTIONS[key][1](text)
            except ValueError as exc:
                raise ConfigError(f"cannot read {key} = {text!r}: {exc}") from exc
    if cfg["manifold"] not in MANIFOLDS:
        raise ConfigError(f"unknown manifold {cfg['manifold']!r}")
    for key, (admissible, rule) in _GRID_RULES.items():
        if not cfg[key]:
            raise ConfigError(f"parameter grid {key!r} is empty")
        for v in cfg[key]:
            if not admissible(v):
                raise ConfigError(f"parameter grid {key!r} holds {v}; "
                                  f"values must be {rule}")
        if len(set(cfg[key])) < len(cfg[key]):
            raise ConfigError(f"parameter grid {key!r} repeats a value: {cfg[key]}")
    for key, least in (("k", 1), ("jmax", 1), ("trials", 1), ("seed", 0)):
        if cfg[key] < least:
            raise ConfigError(f"{key} is {cfg[key]}; it must be at least {least}")
    try:
        4.0 ** cfg["jmax"]  # the top level's cutoff, and a mesh's default band
    except OverflowError:
        raise ConfigError(f"jmax is {cfg['jmax']}; 4^jmax overflows a float") from None
    if cfg["band"] is not None and not 0 < cfg["band"] < float("inf"):
        raise ConfigError(f"band is {cfg['band']}; it must be positive and finite")
    if cfg["manifold"] == "mesh":
        if not cfg["mesh"]:
            raise ConfigError("mesh manifold needs --mesh <path>")
        if not os.path.exists(cfg["mesh"]):
            raise ConfigError(f"mesh file not found: {cfg['mesh']}")
    return cfg


def _jackson_entry(cfg: dict, kind: str):
    if kind == "circle":
        return corpus_mod.lacunary(2.0, max(3, min(6, cfg["jmax"] + 2)))
    return corpus_mod.random_bandlimited(4.0, cfg["seed"])


def _check_corpus_resolved(cfg: dict, names: list[str]) -> None:
    """Reject a circle too coarse for a corpus function the run samples."""
    if cfg["manifold"] != "circle":
        return
    entries = []
    if "approx" in names or "besov" in names:
        entries += corpus_mod.default_corpus("circle")
    if "jackson" in names:
        entries.append(_jackson_entry(cfg, "circle"))
    for entry in entries:
        if (entry.frequency is not None
                and entry.frequency > resolved_frequency(cfg["nodes"])):
            raise ConfigError(
                f"{cfg['nodes']} circle nodes cannot resolve frequency "
                f"{entry.frequency} of corpus function {entry.id}; "
                f"it needs more than {2 * entry.frequency} nodes")


def _check_sobolev_order(cfg: dict, eigsys, names: list[str]) -> None:
    """Reject a k for which the power of the largest eigenvalue the run
    raises to it overflows a float: ``jackson`` raises eigenvalues up to the
    band to k/2, ``besov`` to k, and ``bernstein`` those up to its top
    cutoff to k."""
    k, band = cfg["k"], eigsys.band_limit
    powers = {"jackson": (band, k / 2), "besov": (band, k),
              "bernstein": (min(BERNSTEIN_CUTOFFS[-1], band), k)}
    for name in names:
        if name in powers:
            top, s = powers[name]
            try:
                top ** s
            except OverflowError:
                raise ConfigError(
                    f"k is {k}; {name} raises eigenvalues up to {top:g} to the "
                    f"power {s:g}, which overflows a float") from None


def build_model_and_eigsys(cfg: dict, need_levels: bool = True):
    """The configured manifold's eigensystem, which holds its model."""
    model, default_band = MANIFOLDS[cfg["manifold"]](cfg)
    band = default_band if cfg["band"] is None else cfg["band"]
    need = 4.0 ** cfg["jmax"]
    if need_levels and band < need:
        raise ConfigError(f"band {band} cannot reach jmax={cfg['jmax']} (needs {need})")
    return build_eigensystem(model, band)


# ---------------------------------------------------------------------------
# output helpers

def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through ``spectrum._atomic_file``."""
    with _atomic_file(path) as fh:
        fh.write(text)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _jsonable(x):
    """Strict-JSON representation: non-finite floats become strings."""
    if isinstance(x, float):
        return x if np.isfinite(x) else _fmt(x)
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    return x


def write_table(outdir: str, name: str, header: list[str], rows: list[list]) -> None:
    """Write name.csv and a gnuplot-friendly name.dat atomically."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    _atomic_write(os.path.join(outdir, name + ".csv"), buf.getvalue())
    lines = ["# " + " ".join(header)]
    for row in rows:
        lines.append(" ".join(_fmt(x) for x in row))
    _atomic_write(os.path.join(outdir, name + ".dat"), "\n".join(lines) + "\n")


class Report:
    """Collects per-assertion pass/fail entries for report.json."""

    def __init__(self):
        self.assertions = []

    def check(self, name: str, passed: bool, value, threshold, note: str = ""):
        self.assertions.append({
            "name": name, "passed": bool(passed),
            "value": None if value is None else _jsonable(float(value)),
            "threshold": None if threshold is None else _jsonable(float(threshold)),
            "note": note,
        })
        return passed

    @property
    def all_passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)


# ---------------------------------------------------------------------------
# experiments

def run_spectrum(cfg, eigsys, outdir, report: Report, cache: ErrorCache):
    dev = check_orthonormality(eigsys)
    report.check("spectrum.orthonormality", dev < 1e-10, dev, 1e-10)
    report.check("spectrum.lambda0", eigsys.eigenvalues[0] == 0.0,
                 eigsys.eigenvalues[0], 0.0)
    rows = [[i, lam] for i, lam in enumerate(eigsys.eigenvalues)]
    write_table(outdir, "spectrum", ["index", "eigenvalue"], rows)
    save_eigensystem(eigsys, os.path.join(outdir, "eigensystem.json"))


def run_filters(cfg, eigsys, outdir, report: Report, cache: ErrorCache):
    J = 5
    grid = np.linspace(0.0, 4.0 ** J, 10001)
    dev = check_partition(J, grid)
    report.check("filters.partition_of_unity", dev < 1e-12, dev, 1e-12)
    sample = np.geomspace(1e-2, 4.0 ** J, 200)
    rows = np.column_stack([sample] + [f_j(j, sample)
                                       for j in range(J + 1)]).tolist()
    write_table(outdir, "filters", ["lambda"] + [f"F{j}" for j in range(J + 1)], rows)


def run_kernel_decay(cfg, eigsys, outdir, report: Report, cache: ErrorCache):
    # scales 2^-j, 0 < t <= 1, whose filter band the eigensystem covers
    usable = [2.0 ** (-j) for j in range(0, 7)
              if 16.0 * 4.0 ** j <= eigsys.band_limit]
    t_list = sorted(usable)[:5]
    if len(t_list) < 2:
        raise ConfigError("band too small for a kernel-decay sweep")
    fits, rows, runtimes = [], [], []
    for t in t_list:
        t0 = time.perf_counter()
        kern = build_kernel(eigsys, F, t)
        fit = fit_decay_constant(kern)
        runtimes.append(1000.0 * (time.perf_counter() - t0))
        fits.append(fit)
        rows.append([fit.t, fit.N, fit.C, fit.max_abs_kernel,
                     round(runtimes[-1], 3)])
    cs = [f.C for f in fits]
    ratio = max(cs) / min(cs) if min(cs) > 0 else float("inf")
    report.check("kernel.decay_uniformity", ratio < 4.0, ratio, 4.0,
                 note=f"t in {t_list}")
    vol = [weighted_decay_integral(eigsys.model, t) for t in t_list]
    vratio = max(vol) / min(vol)
    report.check("kernel.volume_uniformity", vratio < 8.0, vratio, 8.0)
    write_table(outdir, "kernel_decay", ["t", "N", "C", "max_abs_K", "runtime_ms"], rows)
    # operator-norm lower estimates over the same scales
    norm_rows = []
    for p in cfg["p"]:
        ests = [operator_norm_estimate(eigsys, F, t, p, trials=cfg["trials"],
                                       seed=cfg["seed"])
                for t in t_list]
        for t, e in zip(t_list, ests):
            norm_rows.append([p, t, e])
        lo, hi = min(ests), max(ests)
        nratio = hi / lo if lo > 0 else float("inf")
        report.check(f"kernel.opnorm_uniform[p={p:g}]", nratio < 2.0, nratio, 2.0)
    write_table(outdir, "operator_norms", ["p", "t", "estimate"], norm_rows)


def run_approx(cfg, eigsys, outdir, report: Report, cache: ErrorCache):
    entries = corpus_mod.default_corpus(eigsys.model.kind)
    _atomic_write(os.path.join(outdir, "corpus_manifest.json"),
                  json.dumps(corpus_mod.manifest(entries), indent=2))
    cutoffs = [4.0 ** j for j in range(cfg["jmax"] + 1)]
    rows = []
    for entry in entries:
        f = entry.build(eigsys.model, eigsys)
        for p in cfg["p"]:
            errs = [r.error for r in errors_at_cutoffs(eigsys, f, p, cutoffs, cache)]
            # the largest step up between consecutive cutoffs (jmax >= 1
            # gives at least one step)
            rise = max(b - a for a, b in zip(errs, errs[1:]))
            report.check(f"approx.monotone[{entry.id},p={p:g}]", rise <= 1e-9,
                         rise, 1e-9)
            for j, e in enumerate(errs):
                rows.append([entry.id, j, cutoffs[j], p, e])
            if p == 2.0 and entry.expected_rate is not None:
                floor = roundoff_floor(eigsys, f, p, cache)
                nz = [(j, e) for j, e in enumerate(errs) if e > floor]
                # drop the final level when the sequence terminates inside
                # the sweep (it is truncation-dominated)
                if nz and nz[-1][0] < len(errs) - 1:
                    nz = nz[:-1]
                if len(nz) >= 4:
                    js = np.array([j for j, _ in nz], dtype=float)
                    slope = np.polyfit(js, np.log2([e for _, e in nz]), 1)[0]
                    report.check(f"approx.rate[{entry.id}]",
                                 abs(-slope - entry.expected_rate) <= 0.15,
                                 -slope, entry.expected_rate,
                                 note="coarse-scale gate; library tests pin 0.1")
    write_table(outdir, "approx_errors", ["id", "j", "omega", "p", "error"], rows)


def run_jackson(cfg, eigsys, outdir, report: Report, cache: ErrorCache):
    k = cfg["k"]
    entry = _jackson_entry(cfg, eigsys.model.kind)
    f = entry.build(eigsys.model, eigsys)
    rows = []
    for p in cfg["p"]:
        ratios = jackson_ratios(eigsys, f, k, p, cfg["jmax"], cache)
        errs = [r.error for r in errors_at_cutoffs(
            eigsys, f, p, [4.0 ** j for j in range(cfg["jmax"] + 1)], cache)]
        # levels already resolved to roundoff carry no rate information
        floor = roundoff_floor(eigsys, f, p, cache)
        pos = [r for r, e in zip(ratios, errs) if r > 0 and e > floor]
        trend = max(pos) / np.median(pos) if pos else 1.0
        report.check(f"jackson.bounded[p={p:g}]", trend < 10.0, trend, 10.0)
        for j, r in enumerate(ratios):
            rows.append([entry.id, p, j, r])
    write_table(outdir, "jackson", ["id", "p", "j", "ratio"], rows)


def run_bernstein(cfg, eigsys, outdir, report: Report, cache: ErrorCache):
    k = cfg["k"]
    rng = np.random.default_rng(cfg["seed"])
    # the spread check compares cutoffs, so the sweep needs at least two
    omegas = [w for w in BERNSTEIN_CUTOFFS if w <= eigsys.band_limit]
    if len(omegas) < 2:
        raise ConfigError(f"band {eigsys.band_limit:g} too small for a bernstein "
                          "sweep; it needs at least 16")
    rows = []
    for p in cfg["p"]:
        worsts = []
        for omega in omegas:
            k_idx = eigsys.cutoff_index(omega)
            worst = 0.0
            for _ in range(cfg["trials"]):
                c = CoefVector(rng.standard_normal(k_idx))
                worst = max(worst, bernstein_ratio(eigsys, c, k, p, omega))
            worsts.append(worst)
            rows.append([p, omega, worst])
        if p == 2.0:
            report.check("bernstein.p2_exact", max(worsts) <= 1.0 + 1e-12,
                         max(worsts), 1.0)
        else:
            spread = max(worsts) / min(worsts) if min(worsts) > 0 else float("inf")
            report.check(f"bernstein.stable[p={p:g}]", spread < 2.0, spread, 2.0)
    write_table(outdir, "bernstein", ["p", "omega", "max_ratio"], rows)


def run_young(cfg, eigsys, outdir, report: Report, cache: ErrorCache):
    rng = np.random.default_rng(cfg["seed"])
    model = eigsys.model
    n = model.n_nodes
    rows = []
    worst = -np.inf
    for trial in range(cfg["trials"]):
        raw = rng.standard_normal((n, n))
        kern = KernelMatrix(model, 0.5 * (raw + raw.T), 1.0)
        f = GridFunction(model, rng.standard_normal(n))
        p = float(rng.choice([x for x in cfg["p"] if x >= 1]))
        if np.isinf(p):
            alpha, q = 1.0, float("inf")
        else:
            alpha = float(rng.uniform(1.0, min(4.0, p / (p - 1.0)) if p > 1 else 4.0))
            inv_q = 1.0 / p + 1.0 / alpha - 1.0
            q = float("inf") if inv_q <= 1e-12 else 1.0 / inv_q
        lhs, rhs = young_apply_check(kern, f, p, q, alpha)
        worst = max(worst, lhs - rhs)
        rows.append([trial, p, q, alpha, lhs, rhs, lhs - rhs])
    report.check("young.inequality", worst <= 1e-12, worst, 1e-12,
                 note="max over trials of lhs - rhs")
    write_table(outdir, "young", ["trial", "p", "q", "alpha", "lhs", "rhs", "slack"], rows)


def run_besov(cfg, eigsys, outdir, report: Report, cache: ErrorCache):
    J = cfg["jmax"]
    summaries = []
    rows = []
    ratios = []
    k = cfg["k"]
    funcs = []
    for entry in corpus_mod.default_corpus(eigsys.model.kind):
        f = entry.build(eigsys.model, eigsys)
        funcs.append((entry, f, is_bandlimited(eigsys, f, cache)))
    for entry, f, bandlimited in funcs:
        jackson_max = bernstein_max = None
        if bandlimited:
            jr = jackson_ratios(eigsys, f, k, 2.0, J, cache)
            jackson_max = max(jr)
            # the function's own cutoff: largest eigenvalue carrying content
            c = bandlimited_coefficients(eigsys, f, cache)
            coefs = np.abs(c.coefficients)
            alive = np.nonzero(coefs > 1e-10 * max(coefs.max(), 1e-300))[0]
            if len(alive) and eigsys.eigenvalues[alive[-1]] > 0:
                own_band = float(eigsys.eigenvalues[alive[-1]])
                bernstein_max = bernstein_ratio(eigsys, c, k, 2.0, own_band)
        for alpha in cfg["alpha"]:
            for p in cfg["p"]:
                for q in cfg["q"]:
                    params = BesovParams(alpha=alpha, p=p, q=q, J=J)
                    a = a_norm(eigsys, f, params, cache)
                    comp = lp_comparator_norm(eigsys, f, params, cache=cache)
                    ratio = a / comp if comp > 0 else float("inf")
                    ratios.append(ratio)
                    rows.append([entry.id, alpha, p, q, a, comp, ratio])
                    summaries.append({
                        "function_id": entry.id,
                        "params": {"alpha": alpha, "p": _fmt(p), "q": _fmt(q), "J": J},
                        "a_norm": a,
                        "comparator": comp,
                        "ratio": ratio,
                        "jackson_max_ratio": jackson_max,
                        "bernstein_max_ratio": bernstein_max,
                    })
    c_bound = max(max(ratios), 1.0 / min(ratios))
    report.check("besov.equivalence_constant", c_bound < 50.0, c_bound, 50.0,
                 note="max of ratio and 1/ratio over corpus x params")
    # continuous and interpolation norms vs the dyadic a-norm at p = 2
    for entry, f, bandlimited in funcs:
        for alpha in cfg["alpha"]:
            params = BesovParams(alpha=alpha, p=2.0, q=2.0, J=J)
            a = a_norm(eigsys, f, params, cache)
            cont = a_norm_continuous(eigsys, f, params, cache)
            ratio = a / cont
            ok = 1.0 / 8.0 <= ratio <= 8.0
            report.check(f"besov.continuous[{entry.id},alpha={alpha:g}]",
                         ok, ratio, 8.0)
            if 0 < alpha / k < 1 and bandlimited:
                inorm = interpolation_norm(eigsys, f, alpha / k, k, cache)
                iratio = a / inorm
                report.check(f"besov.interpolation[{entry.id},alpha={alpha:g}]",
                             1.0 / 32.0 <= iratio <= 32.0, iratio, 32.0)
    write_table(outdir, "besov",
                ["id", "alpha", "p", "q", "a_norm", "comparator", "ratio"], rows)
    _atomic_write(os.path.join(outdir, "besov_report.json"),
                  json.dumps(_jsonable(summaries), indent=2))


EXPERIMENTS = {
    "spectrum": run_spectrum,
    "filters": run_filters,
    "kernel-decay": run_kernel_decay,
    "approx": run_approx,
    "jackson": run_jackson,
    "bernstein": run_bernstein,
    "young": run_young,
    "besov": run_besov,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="besovlab",
        description="spectral approximation experiments on discretized manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(EXPERIMENTS) + ["all"]:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", help="plain-text config file (key = value)")
        for key, (_, _, help_text) in OPTIONS.items():
            sp.add_argument(f"--{key}", help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    names = list(EXPERIMENTS) if args.command == "all" else [args.command]
    try:
        cfg = resolve_config(args)
        _check_corpus_resolved(cfg, names)
        outdir = cfg["out"]
        os.makedirs(outdir, exist_ok=True)
        needs_levels = args.command in ("approx", "jackson", "besov", "all")
        eigsys = None
        if args.command != "filters":   # the filter bank reads no model
            eigsys = build_model_and_eigsys(cfg, need_levels=needs_levels)
            _check_sobolev_order(cfg, eigsys, names)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: the model and eigensystem do not fit in memory: {exc}",
              file=sys.stderr)
        return 2
    report = Report()
    cache = ErrorCache()
    summary = {"config": cfg, "experiments": names}
    aborted = None
    for name in names:
        try:
            EXPERIMENTS[name](cfg, eigsys, outdir, report, cache)
        except Exception as exc:
            aborted = exc
            summary["aborted"] = {"experiment": name,
                                  "error": f"{type(exc).__name__}: {exc}"}
            break
    summary.update(assertions=report.assertions,
                   passed=aborted is None and report.all_passed)
    _atomic_write(os.path.join(outdir, "report.json"),
                  json.dumps(_jsonable(summary), indent=2))
    for a in report.assertions:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: value={a['value']} threshold={a['threshold']}")
    if isinstance(aborted, (ConfigError, ValueError)):
        print(f"error: {aborted}", file=sys.stderr)
        return 2
    if aborted is not None:
        traceback.print_exception(aborted, file=sys.stderr)
        print(f"error: experiment {summary['aborted']['experiment']} aborted",
              file=sys.stderr)
        return 1
    if not report.all_passed:
        print("one or more assertions failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
