"""Every script under ``examples/`` runs to completion.

Each example asserts its own story (the calendar one cross-checks its
grounding against the request's possible worlds), so running ``main()``
is the test; a coroutine ``main`` runs under ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import importlib.util
import inspect
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert [path.stem for path in EXAMPLES] == [
        "async_sessions",
        "calendar_scheduling",
        "possible_worlds",
        "quickstart",
        "social_travel",
    ]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if inspect.iscoroutinefunction(module.main):
        asyncio.run(module.main())
    else:
        module.main()
    assert capsys.readouterr().out
