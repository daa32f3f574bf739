"""The package's export table: each public name resolves on first use to
the object its module defines, and a bare ``import jflow`` loads nothing
else."""

import importlib

import pytest

import jflow
from test_cli import run_fresh


def test_bare_import_loads_no_submodule():
    run_fresh(
        "import sys\n"
        "import jflow\n"
        "loaded = sorted(name for name in sys.modules\n"
        "                if name == 'jflow' or name.startswith('jflow.'))\n"
        "assert loaded == ['jflow'], loaded\n"
        "assert set(jflow.__all__) <= set(dir(jflow))\n")


def test_module_name_resolves_after_bare_import():
    run_fresh(
        "import sys\n"
        "import jflow\n"
        "assert jflow.geometry is sys.modules['jflow.geometry']\n"
        "assert 'jflow.geodesic' not in sys.modules\n")


def test_every_export_is_its_modules_object():
    names = []
    for module, exported in jflow._EXPORTS.items():
        defining = importlib.import_module(f"jflow.{module}")
        for name in exported:
            assert getattr(jflow, name) is getattr(defining, name), name
            names.append(name)
    assert jflow.__all__ == sorted(names) + ["__version__"]
    assert len(set(names)) == len(names)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from jflow import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(jflow.__all__)
    assert namespace["run_flow"] is importlib.import_module("jflow.flow").run_flow


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        jflow.no_such_name
    with pytest.raises(ImportError):
        from jflow import no_such_name  # noqa: F401
