"""Every name the benchmark's tracer wraps or reads still exists in cdu.

bench/tracer.py looks each name up when it installs its wrappers, so a
name deleted from src/ would break `bench/run.py --trace 1`."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from cdu import field

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


WRAPPED = _wrapped()


@pytest.mark.parametrize("layer", sorted(WRAPPED))
def test_wrapped_names_resolve(layer):
    mod = importlib.import_module(f"cdu.{layer}")
    functions, classes = WRAPPED[layer]
    for name in functions:
        assert callable(getattr(mod, name, None)), f"cdu.{layer}.{name}"
    for cls_name, methods in classes.items():
        cls = getattr(mod, cls_name)
        assert inspect.isclass(cls), f"cdu.{layer}.{cls_name}"
        for name in methods:
            # install() reads the method from the class's own namespace
            assert callable(cls.__dict__.get(name)), f"cdu.{layer}.{cls_name}.{name}"


def test_shift_cache_order_resolves():
    # install() reads this constant for as long as the tracer names it
    if "field._SHIFT_CACHE_MAX_ORDER" in TRACER.read_text():
        assert isinstance(field._SHIFT_CACHE_MAX_ORDER, int)
