"""Each call gets an element's derived data from one source: a public
function takes the element or its derive_all bundle, never both, and only
the modules that derive the inverse maps read them off the memo."""

import ast
import inspect
from pathlib import Path

import sepidem as sd

SRC = Path(sd.__file__).resolve().parent


def _public_callables():
    """(name, callable) for every public name of sepidem, and for the
    public methods and __init__ of every public class."""
    for name in dir(sd):
        obj = getattr(sd, name)
        if name.startswith("_") or not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr in vars(obj):
                member = getattr(obj, attr)
                if callable(member) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", member


def _parameter_types(fn):
    """The names of the annotated parameter types of fn."""
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return set()
    return {p.annotation if isinstance(p.annotation, str)
            else getattr(p.annotation, "__name__", "") for p in params}


def test_no_public_callable_takes_an_element_and_its_bundle():
    types = {name: _parameter_types(fn) for name, fn in _public_callables()}
    both = [name for name, t in types.items() if {"TensorElement", "DerivedData"} <= t]
    assert both == []
    # the scan sees both kinds of parameter
    assert "TensorElement" in types["decompose_blocks"]
    assert {"Duality.__init__", "check_cauchy_bound", "check_positivity_transfer",
            "implementing_element_from_trace", "trace_from_implementing_element"} <= {
        name for name, t in types.items() if "DerivedData" in t}
    assert list(inspect.signature(sd.decompose_blocks).parameters) == ["e"]
    assert "element" not in inspect.signature(sd.modular_automorphisms).parameters
    assert not hasattr(sd.Duality, "from_element")


def test_only_engine_and_integrals_read_the_inverse_maps_off_the_memo():
    readers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if "_inverse_map" in names:
                readers.add(path.stem)
    assert readers == {"engine", "integrals"}
