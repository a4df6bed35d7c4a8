"""Each fact has one owner.  A ProblemSpec carries its mesh, and so does
every field (ExponentField, GridFunction), so no public function takes a
mesh beside a spec or beside a field: the separate mesh could only repeat
the one the spec or field already holds, or disagree with it.  Likewise a
spec owns its regime (``spec.hypotheses.regime``), so nothing that
reaches a spec takes a regime.  A SystemState carries a solution's
fields with their spec and their barrier pair, so nothing takes a
solution beside a spec or a pair.  And the package defines only what it
uses itself."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import pytest

from varpx import barriers, expspace, grid, plaplace, sysfix, verify

MODULES = [grid, expspace, plaplace, barriers, sysfix, verify]


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


def _takes(param, names, annotations):
    return param.name in names or any(a in str(param.annotation) for a in annotations)


def _taking_both(module, first, second):
    """Public functions of ``module`` with a parameter matching each of
    the (names, annotations) pairs ``first`` and ``second``."""
    both = []
    for name, fn in _public_functions(module):
        params = inspect.signature(fn).parameters.values()
        if (any(_takes(p, *first) for p in params)
                and any(_takes(p, *second) for p in params)):
            both.append(name)
    return both


MESH = (("mesh",), ("Mesh",))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_function_takes_a_spec_and_a_mesh(module):
    assert _taking_both(module, (("spec",), ("ProblemSpec",)), MESH) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_function_that_reaches_a_spec_takes_a_regime(module):
    # a spec parameter reaches one, and so does every method of a spec or
    # of a SystemState, which carries its spec
    both = []
    for name, fn in _public_functions(module):
        params = inspect.signature(fn).parameters.values()
        reaches = (name.startswith(("ProblemSpec.", "SystemState."))
                   or any(_takes(p, ("spec",), ("ProblemSpec",)) for p in params))
        if reaches and any(_takes(p, ("regime",), ("Regime",)) for p in params):
            both.append(name)
    assert both == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_function_takes_a_field_and_a_mesh(module):
    field = (("p", "ps"), ("ExponentField", "GridFunction"))
    assert _taking_both(module, field, MESH) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_function_takes_a_solution_beside_a_spec_or_a_pair(module):
    solution = (("solution",), ())
    assert (_taking_both(module, solution, (("spec",), ("ProblemSpec",)))
            + _taking_both(module, solution, (("pair",), ("BarrierPair",)))) == []


# Reached only from the property tests, as the public faces of the
# Luxemburg root search the run takes through luxemburg_norm_from_samples.
UNCALLED_FACES = {"modular", "luxemburg_norm"}


def _names(tree):
    """Every identifier a Name or Attribute node of ``tree`` reads or binds."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_definition_is_used_in_the_package():
    src = Path(barriers.__file__).parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in UNCALLED_FACES
              and used[node.name] == _names(node)[node.name]]
    assert unused == []


def test_no_module_reads_another_modules_private_name():
    # a ``_`` name belongs to its module: another module that needs it
    # needs a public name for it
    src = Path(barriers.__file__).parent
    ours = {path.stem for path in src.glob("*.py")}
    reads = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # names this module binds to a package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in ours:
                        modules.add(alias.asname or alias.name)
                    elif node.module is not None and alias.name.startswith("_"):
                        reads.append(f"{path.name}: {node.module}.{alias.name}")
        reads += [f"{path.name}: {n.value.id}.{n.attr}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in modules and n.attr.startswith("_")]
    assert reads == []
