"""The reach report's allow-list names functions of bcmdiag, under the
names the report gives them, so a renamed entry point cannot hide its
lines.  Nothing here runs the tracer."""

import importlib
import inspect

import pytest

import reach


@pytest.fixture(scope="module")
def reported_names() -> set[str]:
    return {name for per_function in reach.executable_lines().values() for name in per_function}


@pytest.mark.parametrize("entry", reach.SUBPROCESS_ONLY)
def test_each_exempt_name_is_a_function_of_bcmdiag(entry, reported_names):
    module, _, qualname = entry.partition(":")
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    assert inspect.isfunction(target) and target.__module__ == module
    assert entry in reported_names
