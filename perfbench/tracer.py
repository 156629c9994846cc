"""Outside-in layer tracer for besovlab.

The tracer never edits the library. It wraps the public functions of each
layer module and rebinds every name that refers to the same function object
in every loaded ``besovlab.*`` namespace. Modules such as ``cli``,
``analysis``, ``operators``, ``corpus`` and the package ``__init__`` bind
names at import time, so a wrapper installed only on the defining module
would miss their calls; rebinding the defining module's attribute also
catches in-module global calls (``load_mesh`` -> ``edge_graph_distances``).
Module-level dicts (``cli.EXPERIMENTS``) are rebound too.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` lists and
written out once the pass ends. Everything installed is undone by
``uninstall``, so an untraced pass runs the original bindings.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

LAYERS = ("manifold", "mesh", "spectrum", "filters", "corpus", "approx",
          "analysis", "operators", "cli")

# Methods that carry layer work: (module, class, method, span name).
METHODS = (
    ("manifold", "ManifoldModel", "distance_matrix", "manifold.distance_matrix"),
    ("corpus", "CorpusEntry", "build", "corpus.build"),
)

# Top-level spans of a pass, whose sum is compared with the pass wall time.
CLI_TOP = ("cli.build_model_and_eigsys", "cli.run_spectrum", "cli.run_filters",
           "cli.run_kernel_decay", "cli.run_approx", "cli.run_jackson",
           "cli.run_bernstein", "cli.run_young", "cli.run_besov")
SOLVERS = ("lp_p1", "lp_pinf", "irls", "projection")


def solver_class(solver: str, p: float) -> str:
    """Classify an ``ApproxResult`` by its solver name and exponent."""
    if solver == "lp-highs":
        return "lp_pinf" if p == float("inf") else "lp_p1"
    return solver


class Tracer:
    """Span recorder plus the bindings it replaced."""

    def __init__(self, pass_id: str = "0"):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.cache_lookups = 0
        self.cache_hits = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, annotate=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, None]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if annotate is not None:
                span[4] = annotate(args, kwargs, result)
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _count_lookup(self, fn):
        tracer = self

        def lookup(*args, **kwargs):
            val = fn(*args, **kwargs)
            tracer.cache_lookups += 1
            tracer.cache_hits += val is not None
            return val

        lookup.__wrapped__ = fn
        return lookup

    def install(self) -> None:
        """Wrap every public layer function and rebind all its names."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"besovlab.{layer}")
            if mod is None:        # e.g. besovlab.cli in a library-only pass
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj,
                                                     _ANNOTATE.get(f"{layer}.{attr}")))
        for name, mod in list(sys.modules.items()):
            if name != "besovlab" and not name.startswith("besovlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj, True))
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = wrappers.get(id(val))
                        if hit is not None and hit[0] is val:
                            obj[key] = hit[1]
                            self._undo.append((obj, key, val, False))
        for layer, cls_name, meth, span_name in METHODS:
            cls = getattr(sys.modules[f"besovlab.{layer}"], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(span_name, orig))
            self._undo.append((cls, meth, orig, True))
        cache_cls = sys.modules["besovlab.analysis"].ErrorCache
        orig = cache_cls.__dict__["lookup"]
        cache_cls.lookup = self._count_lookup(orig)
        self._undo.append((cache_cls, "lookup", orig, True))

    def uninstall(self) -> None:
        """Put every replaced binding back, newest first."""
        while self._undo:
            owner, key, orig, is_attr = self._undo.pop()
            if is_attr:
                setattr(owner, key, orig)
            else:
                owner[key] = orig

    @property
    def bindings_replaced(self) -> int:
        return len(self._undo)

    # -- export -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"pass_id": self.pass_id,
                "spans": self.spans,
                "cache": {"lookups": self.cache_lookups, "hits": self.cache_hits}}


def _annotate_best_approx(args, kwargs, res):
    return {"solver": solver_class(res.solver, res.p),
            "iterations": int(res.iterations), "converged": bool(res.converged)}


def _annotate_eigensystem(args, kwargs, eigsys):
    return {"eigenpairs": int(eigsys.n_eigen)}


def _annotate_save(args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path)}


_ANNOTATE = {
    "approx.best_approx": _annotate_best_approx,
    "spectrum.build_eigensystem": _annotate_eigensystem,
    "spectrum.save_eigensystem": _annotate_save,
}


# -- metrics derived from a finished trace ----------------------------------

# Spans reported as inclusive seconds (".s"), self seconds (".self_s") and
# call counts (".calls").
BUSY = (CLI_TOP + ("cli.write_table", "mesh.load_mesh", "mesh.edge_graph_distances",
                   "mesh.cotangent_stiffness", "manifold.distance_matrix",
                   "spectrum.build_eigensystem", "spectrum.check_orthonormality",
                   "spectrum.save_eigensystem", "spectrum.project", "spectrum.synthesize",
                   "approx.best_approx", "analysis.errors_at_cutoffs", "analysis.a_norm",
                   "analysis.a_norm_continuous", "analysis.lp_comparator_norm",
                   "analysis.interpolation_norm", "analysis.jackson_ratios",
                   "analysis.bernstein_ratio", "operators.build_kernel",
                   "operators.fit_decay_constant", "operators.weighted_decay_integral",
                   "operators.operator_norm_estimate", "operators.young_apply_check",
                   "filters.check_partition", "corpus.build"))
SELF = CLI_TOP[1:]
CALLS = ("manifold.lp_norm", "spectrum.project", "spectrum.synthesize",
         "approx.best_approx", "analysis.k_functional_quadratic",
         "analysis.is_bandlimited")


def _outermost(spans, name):
    """Spans named ``name`` with no ancestor of the same name."""
    out = []
    for s in spans:
        if s[0] != name:
            continue
        parent = s[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out.append(s)
    return out


def busy_s(spans, name) -> float:
    """Inclusive seconds spent inside ``name`` (nested repeats counted once)."""
    return sum(s[2] - s[1] for s in _outermost(spans, name))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def ancestors(spans, idx):
    """Names of the spans enclosing span ``idx``, innermost first."""
    out = []
    parent = spans[idx][3]
    while parent >= 0:
        out.append(spans[parent][0])
        parent = spans[parent][3]
    return out


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values (seconds, counts, ratios) of one traced pass."""
    spans = trace["spans"]
    own = self_times(spans)
    m = {f"{n}.s": busy_s(spans, n) for n in BUSY}
    m.update({f"{n}.self_s": sum(t for s, t in zip(spans, own) if s[0] == n)
              for n in SELF})
    m.update({f"{n}.calls": sum(1 for s in spans if s[0] == n) for n in CALLS})
    m["manifold.build.s"] = sum(busy_s(spans, f"manifold.build_{k}")
                                for k in ("circle", "torus2", "sphere2"))
    m["spectrum.eigenpairs"] = max(
        [s[4]["eigenpairs"] for s in spans
         if s[0] == "spectrum.build_eigensystem" and s[4]], default=0)
    m["spectrum.save_eigensystem.bytes"] = sum(
        s[4]["bytes"] for s in spans if s[0] == "spectrum.save_eigensystem" and s[4])
    solves = [s for s in spans if s[0] == "approx.best_approx" and s[4]]
    for solver in SOLVERS:
        mine = [s for s in solves if s[4]["solver"] == solver]
        m[f"approx.{solver}.calls"] = len(mine)
        m[f"approx.{solver}.s"] = sum(s[2] - s[1] for s in mine)
        m[f"approx.{solver}.iterations"] = sum(s[4]["iterations"] for s in mine)
        m[f"approx.{solver}.max_s"] = max((s[2] - s[1] for s in mine), default=0.0)
    bad = sum(1 for s in solves if not s[4]["converged"])
    m["approx.nonconverged"] = bad
    m["approx.converged_ratio"] = (len(solves) - bad) / len(solves) if solves else 1.0
    cache = trace["cache"]
    m["analysis.cache.lookups"] = cache["lookups"]
    m["analysis.cache.hit_ratio"] = (cache["hits"] / cache["lookups"]
                                     if cache["lookups"] else 0.0)
    return m


def top_level_s(trace: dict, names) -> float:
    """Seconds covered by the named top-level layer spans of a pass."""
    return sum(busy_s(trace["spans"], n) for n in names)
