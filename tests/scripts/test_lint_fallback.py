"""``scripts/lint_fallback.py``: the stdlib lint ``make lint`` runs without ruff.

The fixtures are written to a temporary directory rather than committed:
a committed module with an unused import would fail the lint itself.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "lint_fallback", REPO_ROOT / "scripts" / "lint_fallback.py"
)
lint_fallback = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("lint_fallback", lint_fallback)
_SPEC.loader.exec_module(lint_fallback)

UNUSED = '''\
from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from pathlib import Path


def size(path: "Path") -> int:
    return os.stat(path).st_size
'''

CLEAN = '''\
from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterable, cast

from collections import OrderedDict as Ordered  # noqa: F401 - re-exported

if TYPE_CHECKING:
    from pathlib import Path

__all__ = ["Ordered", "sizes"]


def sizes(paths: Iterable["Path"]) -> list[int]:
    return [os.stat(cast("Path", path)).st_size for path in paths]
'''


def test_unused_import_is_reported(tmp_path, capsys):
    fixture = tmp_path / "unused.py"
    fixture.write_text(UNUSED)
    assert lint_fallback.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert f"{fixture}:3:8: F401 `json` imported but unused" in out
    assert out.count("imported but unused") == 1  # os, quoted Path: used


def test_clean_module_passes(tmp_path, capsys):
    (tmp_path / "clean.py").write_text(CLEAN)
    # An __init__.py re-exports its API: never an F401.
    (tmp_path / "__init__.py").write_text("import json\n")
    assert lint_fallback.main([str(tmp_path)]) == 0
    assert "0 problem(s) in 2 files" in capsys.readouterr().out


def test_syntax_error_is_e9(tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def broken(:\n")
    assert lint_fallback.main([str(tmp_path)]) == 1
    assert "E999 SyntaxError" in capsys.readouterr().out
