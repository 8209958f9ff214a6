"""The benchmark's tracer (perfbench/tracing.py) rebinds functions of the
package by name, so renaming or deleting one of them breaks a traced run.
This test reads the tracer's name lists, without changing the file, and
checks that each name still exists."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    names = [(module, attr) for _span, module, attr in tracing.SPANS]
    names += [("tensor", op) for op in tracing.TIMED_OPS + tracing.COUNTED_OPS]
    names.append(("text", "tokenize"))
    missing = [
        f"depfuse.{module}.{attr}"
        for module, attr in names
        if not callable(getattr(importlib.import_module(f"depfuse.{module}"), attr, None))
    ]
    assert missing == []


def test_tensor_backward_is_a_plain_function_on_the_class():
    # install() also rebinds depfuse.tensor.Tensor.backward on the class, and
    # uninstall() puts the original back.
    from depfuse.tensor import Tensor

    original = vars(Tensor).get("backward")
    assert inspect.isfunction(original)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert Tensor.backward is not original
    finally:
        tracer.uninstall()
    assert vars(Tensor)["backward"] is original
