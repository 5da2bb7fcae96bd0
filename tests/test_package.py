"""Checks that hold for every module of the package."""

import importlib
import inspect
import pkgutil
import typing

import pcacompress


def _annotated():
    """``(name, object)`` for every function, class and method the package defines."""
    for info in pkgutil.iter_modules(pcacompress.__path__):
        module = importlib.import_module(f"pcacompress.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{info.name}.{name}", value
            elif inspect.isclass(value):
                yield f"{info.name}.{name}", value
                for attr, member in vars(value).items():
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_every_annotation_resolves():
    unresolved = []
    for name, obj in _annotated():
        try:
            typing.get_type_hints(obj)
        except NameError as err:
            unresolved.append(f"{name}: {err}")
    assert not unresolved, unresolved
