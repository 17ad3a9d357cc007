"""Every name a reranklab module lists in ``__all__`` exists, so a deleted name cannot stay exported."""

import importlib
import pkgutil

import pytest

import reranklab

MODULES = ["reranklab"] + [f"reranklab.{info.name}" for info in pkgutil.iter_modules(reranklab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_every_module_is_checked():
    assert {"reranklab.ir_eval", "reranklab.synth", "reranklab.tensor"} <= set(MODULES)
