"""A ProblemSpec carries its mesh, so no public function of the system
layers takes both a spec and a mesh: the separate mesh could only repeat
``spec.mesh`` or disagree with it."""

import inspect

import pytest

from varpx import barriers, sysfix, verify


def _public_functions(module):
    """Public functions of ``module`` and public methods of its classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{name}.{attr}", fn


def _takes(param, name, annotation):
    return param.name == name or annotation in str(param.annotation)


@pytest.mark.parametrize("module", [barriers, sysfix, verify],
                         ids=lambda m: m.__name__)
def test_no_function_takes_a_spec_and_a_mesh(module):
    both = []
    for name, fn in _public_functions(module):
        params = inspect.signature(fn).parameters.values()
        if (any(_takes(p, "spec", "ProblemSpec") for p in params)
                and any(_takes(p, "mesh", "Mesh") for p in params)):
            both.append(name)
    assert both == []
