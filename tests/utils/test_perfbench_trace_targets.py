"""The benchmark's trace hook names only callables that exist.

``perfbench/trace_hook/perfbench_trace.py`` wraps every ``Target`` in
its ``TARGETS`` table when the named module finishes importing; a path
that no longer resolves raises ``AttributeError`` inside the import
hook and crashes every traced process.  This test loads the hook by
path (without installing it) and resolves each target against the
real modules, so renaming or removing a traced callable fails here.
"""

import importlib
import importlib.util
import pathlib

import pytest

_HOOK = (pathlib.Path(__file__).resolve().parents[2] / "perfbench"
         / "trace_hook" / "perfbench_trace.py")


def _load_hook():
    spec = importlib.util.spec_from_file_location("perfbench_trace", _HOOK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(module_name, target.path)
           for module_name, targets in _load_hook().TARGETS.items()
           for target in targets]


def test_targets_are_listed():
    assert TARGETS


@pytest.mark.parametrize("module_name, path", TARGETS,
                         ids=[f"{m}:{p}" for m, p in TARGETS])
def test_trace_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
