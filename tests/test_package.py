"""The package namespace: `import puremeasure` loads a submodule only on the
first use of one of its names, and every name it serves is the defining
module's current object.  The CLI entry makes BLAS single-threaded before
numpy is imported."""

import ast
import os
import subprocess
import sys
import types

import pytest

import puremeasure
import puremeasure.__main__ as entry
from puremeasure import density_engine

SRC = os.path.dirname(os.path.dirname(puremeasure.__file__))


def _last_line(code: str, env: dict) -> object:
    """The value that `code`, run in a fresh interpreter, prints on its last line."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**env, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    return ast.literal_eval(out.splitlines()[-1])


def _loaded_by(statement: str) -> set[str]:
    """The modules that `statement` adds to sys.modules in a fresh interpreter."""
    code = f"import sys; before = set(sys.modules); {statement}; print(sorted(set(sys.modules) - before))"
    return set(_last_line(code, os.environ))


def test_import_loads_no_submodule():
    loaded = _loaded_by("import puremeasure")
    assert [m for m in loaded if m.startswith("puremeasure.")] == []
    assert loaded.isdisjoint({"argparse", "json", "fractions"})


def test_surface_rep_loads_only_what_it_uses():
    loaded = _loaded_by("import puremeasure.surface_rep")
    unused = {f"puremeasure.{m}" for m in ("trace_gradient", "cli", "fa_lattice", "expressions")}
    assert "puremeasure.surface_rep" in loaded
    assert loaded.isdisjoint(unused)


def test_the_entry_module_loads_no_numpy():
    # a console script imports the entry module before it calls main
    assert "numpy" not in _loaded_by("import puremeasure.__main__")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counting threads needs /proc/self/task")
@pytest.mark.parametrize("preset", [{}, {"OPENBLAS_NUM_THREADS": "4"}])
def test_the_entry_makes_blas_single_threaded(preset):
    # one OS thread is the condition under which density_engine._cpus lets a profile fork
    env = {k: v for k, v in os.environ.items() if k not in entry._BLAS_THREADS} | preset
    code = ("import os; from puremeasure.__main__ import _BLAS_THREADS, main; code = main(['--help']); "
            "print((code, [os.environ[name] for name in _BLAS_THREADS], len(os.listdir('/proc/self/task'))))")
    assert _last_line(code, env) == (0, ["1"] * 3, 1)


@pytest.mark.parametrize("name", puremeasure.__all__)
def test_every_public_name_is_its_modules_object(name):
    obj = getattr(puremeasure, name)
    if isinstance(obj, types.ModuleType):
        assert obj is sys.modules[f"puremeasure.{name}"]
    else:
        assert obj.__module__.startswith("puremeasure.")
        assert obj is getattr(sys.modules[obj.__module__], name)


def test_dir_and_star_import_give_all():
    assert len(set(puremeasure.__all__)) == len(puremeasure.__all__)
    assert {n for n in dir(puremeasure) if not n.startswith("_")} == set(puremeasure.__all__)
    namespace: dict = {}
    exec("from puremeasure import *", namespace)
    assert set(puremeasure.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        puremeasure.no_such_name


def test_a_name_is_looked_up_on_every_use(monkeypatch):
    replaced = object()
    monkeypatch.setattr(density_engine, "density_probe", replaced)
    assert puremeasure.density_probe is replaced
    monkeypatch.undo()
    assert puremeasure.density_probe is density_engine.density_probe is not replaced
