"""Every span name the benchmark tracer reads resolves to a besovlab function.

The tracer in ``perfbench/tracer.py`` wraps the public functions of each
layer module and a few methods, and reports per-layer metrics by span name.
A traced function that is deleted or renamed leaves no span, and one the CLI
calls through a reference held elsewhere (a table of builders) is never
wrapped; either way its metric would read 0 without any error. These tests
fail instead.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

from besovlab import cli

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "tracer.py")
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

METHOD_SPANS = {span: (layer, cls, meth) for layer, cls, meth, span in tracer.METHODS}
SPAN_NAMES = sorted(set(tracer.CLI_TOP + tracer.BUSY + tracer.SELF + tracer.CALLS)
                    - set(METHOD_SPANS))


@pytest.mark.parametrize("name", SPAN_NAMES)
def test_function_span_names_a_public_layer_function(name):
    layer, attr = name.split(".")
    assert layer in tracer.LAYERS
    mod = importlib.import_module(f"besovlab.{layer}")
    fn = getattr(mod, attr, None)
    # the tracer wraps only public functions defined in their own module
    assert inspect.isfunction(fn) and not attr.startswith("_")
    assert fn.__module__ == mod.__name__


@pytest.mark.parametrize("span", sorted(METHOD_SPANS))
def test_method_span_names_a_method(span):
    layer, cls_name, meth = METHOD_SPANS[span]
    cls = getattr(importlib.import_module(f"besovlab.{layer}"), cls_name)
    assert inspect.isfunction(cls.__dict__.get(meth))


@pytest.mark.parametrize("args, span", [
    (["approx", "--nodes", "66", "--jmax", "2", "--p", "2"], "manifold.build_circle"),
    (["spectrum", "--manifold", "mesh", "--band", "16"], "mesh.load_mesh")])
def test_traced_run_records_the_builder(tmp_path, icosphere3_path, args, span):
    if "mesh" in args:
        args = args + ["--mesh", str(icosphere3_path)]
    tr = tracer.Tracer("test")
    tr.install()
    try:
        assert cli.main(args + ["--out", str(tmp_path)]) == 0
    finally:
        tr.uninstall()
    spans = tr.to_json()["spans"]
    hits = [i for i, s in enumerate(spans) if s[0] == span]
    assert len(hits) == 1
    assert "cli.build_model_and_eigsys" in tracer.ancestors(spans, hits[0])
