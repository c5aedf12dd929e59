"""Every name the benchmark's tracer wraps or reads still exists in cdu,
and every call the benchmark's scripts make into cdu still binds.

bench/tracer.py looks each name up when it installs its wrappers, so a
name deleted from src/ would break `bench/run.py --trace 1`; a parameter
removed from a function that bench/probe.py calls would break every
probe run."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import cdu
from cdu import field

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


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


def _calls_into_cdu(path):
    """(dotted name, object, positional count, keywords) for each call in
    the file of a function or class of cdu, reached through a name the
    file imports from cdu."""
    tree = ast.parse(path.read_text())
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cdu":
                    importlib.import_module(alias.name)
                    if alias.asname:
                        roots[alias.asname] = importlib.import_module(alias.name)
                    else:
                        roots["cdu"] = cdu
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cdu":
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    value = getattr(module, alias.name)
                roots[alias.asname or alias.name] = value
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        if not isinstance(func, ast.Name) or func.id not in roots:
            continue
        obj = roots[func.id]
        for attr in reversed(chain):
            obj = getattr(obj, attr)
        if not (getattr(obj, "__module__", None) or "").startswith("cdu"):
            continue  # e.g. a method of a dict that cdu holds
        assert not any(isinstance(a, ast.Starred) for a in node.args)
        assert all(k.arg is not None for k in node.keywords)
        name = ".".join([func.id, *reversed(chain)])
        calls.append((name, obj, len(node.args), [k.arg for k in node.keywords]))
    return calls


@pytest.mark.parametrize("script", ["probe.py", "child.py", "selftest.py"])
def test_calls_into_cdu_bind(script):
    for name, fn, positional, keywords in _calls_into_cdu(BENCH / script):
        try:
            inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"bench/{script}: {name} with {positional} positional arguments"
                        f" and keywords {keywords}: {exc}")


def test_probe_calls_are_found():
    calls = {(name, positional, tuple(keywords))
             for name, _, positional, keywords in _calls_into_cdu(BENCH / "probe.py")}
    assert {("cdiff.full_report", 1, ("workers",)),
            ("verify.quadratic_characterization_suite", 1, ("per_field",)),
            ("monomial.exceptionality_sweep", 5, ())} <= calls
