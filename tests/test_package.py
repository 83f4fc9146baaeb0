"""The package's public surface: each submodule's ``__all__``, republished."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import revident

MODULES = ["circuit", "corpus", "cost", "generate", "reduce", "semantics"]


@pytest.mark.parametrize("name", MODULES)
def test_submodule_names_are_the_package_names(name):
    module = importlib.import_module(f"revident.{name}")
    assert module.__all__
    for public in module.__all__:
        assert getattr(revident, public) is getattr(module, public), public


def test_package_names_come_from_the_submodules():
    # every public name that is not a submodule is some submodule's
    exported = {n for name in MODULES for n in importlib.import_module(f"revident.{name}").__all__}
    public = {n for n, v in vars(revident).items()
              if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert public == exported


def test_import_loads_no_bench():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import revident; "
            "print('revident.bench' in sys.modules)")
    src = str(Path(revident.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert out == "False\n"
