"""What ``perfbench/`` reaches of the package, pinned, so that a deletion in
``src/`` cannot break the benchmark unseen.  The benchmark's files are read,
not imported, and nothing here runs a workload.

Three parameters that nothing in ``src/`` reads stay for the benchmark's
sake: every check's ``seed``, which ``perfbench/sweep_child.py`` passes;
and ``switching(seed=)`` and ``SkewTableau(check=)``, which
``perfbench/tracer.py``'s wrappers pass, the latter as the fifth positional
argument of ``__init__``.  Each goes with the benchmark line that passes it.
"""

import ast
import importlib
from pathlib import Path

from lrcommute import verify
from lrcommute.commutor import SwitchSite, switching
from lrcommute.tableaux import SkewTableau, yamanouchi_tableau

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), name)


def _assigned(tree: ast.Module, name: str):
    """The literal value of the module-level assignment to name."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no assignment to {name}")


def test_every_name_perfbench_imports_from_the_package_exists():
    imported = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_tree(path.name)):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "lrcommute"):
                for alias in node.names:
                    imported += 1
                    # as the benchmark runs it: a missing name raises
                    exec(f"from {node.module} import {alias.name}", {})
    assert imported >= 7
    # the tracer imports each of its modules by name
    for name in _assigned(_tree("tracer.py"), "MODULES"):
        importlib.import_module(f"lrcommute.{name}")


def test_every_sweep_child_check_runs_with_its_arguments():
    checks = _assigned(_tree("sweep_child.py"), "CHECKS")
    for calls in checks.values():
        for fn_name, kwargs in calls:
            rep = getattr(verify, fn_name)(seed=1, **dict(kwargs, max_size=2))
            assert rep.instances and rep.passed, fn_name


def test_switching_calls_its_hook_as_the_tracer_wraps_it():
    # perfbench/tracer.py passes switching a hook counting(site, cells):
    # two positional arguments, a SwitchSite and a dict from each cell to
    # its (value, colour)
    calls = []

    def hook(*args, **kwargs):
        calls.append((args, kwargs))

    u, v = yamanouchi_tableau((2, 1)), SkewTableau((3, 2), (2, 1), [(1,), (2,)])
    for strategy in ("greedy", "infusion"):
        switching(u, v, strategy, on_frame=hook)
    assert len(calls) == 6
    for args, kw in calls:
        assert kw == {} and len(args) == 2
        site, cells = args
        assert type(site) is SwitchSite and type(cells) is dict
        assert set(cells) == {(r, c) for r, n in enumerate(v.outer, 1)
                              for c in range(1, n + 1)}
        assert all(type(x) is int and color in ("u", "v")
                   for x, color in cells.values())


def test_the_tracer_s_calls_still_bind():
    u, v = yamanouchi_tableau((1,)), SkewTableau((2,), (1,), [(1,)])
    assert switching(u, v, strategy="greedy", seed=0) == switching(u, v)
    t = SkewTableau.__new__(SkewTableau)
    SkewTableau.__init__(t, (2, 1), (1,), [(1,), (2,)], True)
    assert t == SkewTableau((2, 1), (1,), [(1,), (2,)])
