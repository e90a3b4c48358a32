import importlib
import inspect
import pkgutil
import types

import musielak


# The modules whose __all__ the package re-exports; io and cli stay out.
_REEXPORTED = ("errors", "phi_core", "modular", "conjugate", "embedding_lab", "degiorgi", "solver")


def test_package_names_are_the_union_of_the_reexported_modules_all():
    package = {name for name, value in vars(musielak).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = [name for module in _REEXPORTED for name in importlib.import_module(f"musielak.{module}").__all__]
    assert len(declared) == len(set(declared)) == 46
    assert package == set(declared)


def test_every_name_in_a_modules_all_is_defined():
    # The benchmark tracer looks up each __all__ name of every module, so a
    # name left behind by a deleted function would break every traced run.
    modules = [importlib.import_module(f"musielak.{info.name}") for info in pkgutil.iter_modules(musielak.__path__)]
    assert modules
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def _public_callables(module):
    """Each function in the module's __all__, and each public method and the
    __init__ of each class in it, by qualified name."""
    for name in getattr(module, "__all__", []):
        value = getattr(module, name)
        if inspect.isfunction(value):
            yield f"{module.__name__}.{name}", value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_signature_has_a_private_parameter():
    # A private keyword in a public signature is a second code path that
    # callers are told not to use.
    modules = [importlib.import_module(f"musielak.{info.name}") for info in pkgutil.iter_modules(musielak.__path__)]
    callables = [item for module in modules for item in _public_callables(module)]
    assert len(callables) > 50
    found = [(qualname, param) for qualname, fn in callables
             for param in inspect.signature(fn).parameters if param.startswith("_")]
    assert found == []
