"""Every name a reranklab module lists in ``__all__`` exists, so a deleted name cannot stay exported,
and every name a submodule exports is used by the package's own code, so it exports no more than ``src/`` calls."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import reranklab

MODULES = ["reranklab"] + [f"reranklab.{info.name}" for info in pkgutil.iter_modules(reranklab.__path__)]
SRC = Path(reranklab.__file__).parent

# Exported names that src/ does not use, each with the reason it stays public.
UNUSED_EXPORTS = {
    "tensor.matmul": "perfbench/test_smoke.py names it",
    "tensor.finite_diff_grad": "the tests' gradient oracle",
    "checkpoint.checkpoint_text": "the reload checks in .github/pipeline.sh and perfbench/workloads.py",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_every_module_is_checked():
    assert {"reranklab.ir_eval", "reranklab.synth", "reranklab.tensor"} <= set(MODULES)


def _uses(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` for each name this module's code reads.

    A read is a ``Name`` load outside the top-level definition of that
    name; one bound by ``from reranklab.<m> import`` also counts for
    ``m``. An attribute counts only on a name bound to a reranklab module
    (``T.linear``, ``ir_eval.read_run``), so ``np.matmul`` vouches for nothing.
    """
    imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
    aliases: dict[str, str] = {}  # local name -> module
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "reranklab":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("reranklab."):
            source = node.module.removeprefix("reranklab.")
            imported.update({a.asname or a.name: (source, a.name) for a in node.names})
    uses = set()
    for top in tree.body:
        own = getattr(top, "name", None)  # a definition's reads of its own name are not uses
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                uses.add((module, node.id))
                if node.id in imported:
                    uses.add(imported[node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
                uses.add((aliases[node.value.id], node.attr))
    return uses


def test_every_exported_name_is_used_in_src():
    uses = set()
    for path in SRC.glob("*.py"):
        uses |= _uses(path.stem, ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{name.removeprefix('reranklab.')}.{export}"
        for name in MODULES[1:]
        for export in getattr(importlib.import_module(name), "__all__", [])
        if (name.removeprefix("reranklab."), export) not in uses
    ]
    assert [n for n in unused if n not in UNUSED_EXPORTS] == []
    assert sorted(set(UNUSED_EXPORTS) - set(unused)) == []  # an exception that src/ now uses goes
