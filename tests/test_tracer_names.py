"""Every span name the benchmark tracer reads resolves to a besovlab function.

The tracer in ``perfbench/tracer.py`` wraps the public functions of each
layer module and a few methods, and reports per-layer metrics by span name.
A traced function that is deleted or renamed leaves no span, so its metric
would read 0 without any error; these tests fail instead.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

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
