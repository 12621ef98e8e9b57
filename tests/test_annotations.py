"""Every annotation in the package resolves to a name its module can see."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import pcoulomb


def _modules():
    yield pcoulomb
    for info in pkgutil.iter_modules(pcoulomb.__path__):
        yield importlib.import_module(f"pcoulomb.{info.name}")


def _callables(module):
    """Functions and methods (properties included) defined in ``module``."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "fget", None) or getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", list(_modules()), ids=lambda m: m.__name__)
def test_type_hints_resolve(module):
    failures = []
    for name, fn in _callables(module):
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            failures.append(f"{name}: {exc}")
    assert not failures
