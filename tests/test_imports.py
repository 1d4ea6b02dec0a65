"""Import structure: the lazy package namespace, and calls between layers
that go through the callee's module."""
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import pendulon

# The modules whose public functions perfbench/tracer.py wraps, by rebinding
# the module-level names of every one of them, in this order.
LAYERS = ("_stencils", "continuum", "chain", "lattice", "travelwave",
          "perturbation", "lagrangian_orders", "reductions", "config", "cli")


def test_every_exported_name_resolves_to_its_home_object():
    names = [n for n in pendulon.__all__ if n != "__version__"]
    assert len(names) == len(set(names)) == 52
    for name in names:
        obj = getattr(pendulon, name)
        home = obj.__module__
        assert home.startswith("pendulon."), name
        assert getattr(sys.modules[home], name) is obj, name
    with pytest.raises(AttributeError, match="no_such_name"):
        pendulon.no_such_name


def test_import_loads_no_layer_and_dir_lists_every_name():
    # in a fresh interpreter: here every name is already cached in the package
    code = ("import pendulon, sys; "
            "print(sorted(set(pendulon.__all__) - set(dir(pendulon))), "
            "sorted(m for m in sys.modules if m.startswith('pendulon.')))")
    src = os.path.dirname(os.path.dirname(pendulon.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_no_module_binds_another_layers_public_function():
    """A layer calls another layer's public function through that module
    (_stencils.derivative_matrix(...), travelwave.solve_tw_bvp(...)), never
    through a copy bound by name. A module that first loads while the tracer
    is patching would copy an already-wrapped function, which the tracer then
    wraps a second time and leaves wrapped after it unpatches. The one
    exception is the re-export continuum.derivative."""
    found = []
    for info in pkgutil.iter_modules(pendulon.__path__):
        module = importlib.import_module(f"pendulon.{info.name}")
        for attr, obj in vars(module).items():
            if not inspect.isfunction(obj) or obj.__name__.startswith("_"):
                continue
            package, _, home = obj.__module__.rpartition(".")
            if (package == "pendulon" and home in LAYERS
                    and home != info.name
                    and (info.name, attr) != ("continuum", "derivative")):
                found.append(f"{info.name}.{attr} is {obj.__module__}."
                             f"{obj.__name__}")
    assert found == []
