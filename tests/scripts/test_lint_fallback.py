"""``scripts/lint_fallback.py``: the stdlib lint ``make lint`` runs without ruff.

The fixtures are written to a temporary directory rather than committed:
a committed module with an unused import would fail the lint itself.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "line, suppressed",
    [
        ("import json", False),
        ("import json  # noqa", True),
        ("import json  # noqa: F401", True),
        ("import json  # noqa:F401", True),
        ("import json  # noqa: E402, F401", True),
        ("import json  # noqa: E402", False),
        ("import json  # unused, but noted", False),
    ],
)
def test_noqa_covers_f401_only_when_it_names_it_or_nothing(line, suppressed):
    assert lint_fallback._suppressed(line) is suppressed


#: Modules whose every import is read somewhere the scan must look.
USED_BY = {
    "positional-only annotation": "from pathlib import Path\n\ndef f(p: Path, /): ...\n",
    "keyword-only annotation": "from pathlib import Path\n\ndef f(*, p: Path): ...\n",
    "star-args annotation": "from pathlib import Path\n\ndef f(*p: Path): ...\n",
    "keyword-args annotation": "from pathlib import Path\n\ndef f(**p: Path): ...\n",
    "return annotation": "from pathlib import Path\n\nasync def f() -> Path: ...\n",
    "quoted nested annotation": "from pathlib import Path\n\nx: 'list[Path]' = []\n",
    "typing.cast": "import typing\nfrom pathlib import Path\n\ny = typing.cast('Path', 1)\n",
    "__all__ extended": "from pathlib import Path\n\n__all__ = []\n__all__ += ['Path']\n",
    "dotted import": "import os.path\n\nos.getcwd()\n",
    "star import": "from os import *\n",
}


@pytest.mark.parametrize("source", USED_BY.values(), ids=USED_BY.keys())
def test_a_name_read_anywhere_is_used(source, tmp_path):
    module = tmp_path / "module.py"
    module.write_text(source)
    assert lint_fallback.check_file(module) == []


@pytest.mark.parametrize(
    "source, name",
    [
        ("import json as codec\n", "codec"),
        ("import os.path\n", "os.path"),
        ("from os import path, sep\n\nprint(sep)\n", "path"),
    ],
    ids=["alias", "dotted", "one of two"],
)
def test_the_unused_binding_is_named(source, name, tmp_path):
    module = tmp_path / "module.py"
    module.write_text(source)
    [diagnostic] = lint_fallback.check_file(module)
    assert diagnostic.endswith(f"F401 `{name}` imported but unused")


def test_noqa_on_the_first_line_covers_a_wrapped_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from os import (  # noqa: F401\n    path,\n    sep,\n)\n")
    assert lint_fallback.check_file(module) == []


def test_null_bytes_are_e9(tmp_path):
    module = tmp_path / "module.py"
    module.write_bytes(b"x = 1\x00\n")
    [diagnostic] = lint_fallback.check_file(module)
    assert ": E999 " in diagnostic


def test_files_are_found_in_order_outside_caches(tmp_path):
    for relative in ("b.py", "a/c.py", "a/__pycache__/d.py", "notes.txt"):
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
    single = tmp_path / "b.py"
    found = list(lint_fallback.python_files([str(tmp_path), str(single)]))
    assert found == [tmp_path / "a" / "c.py", single, single]


def test_the_repository_lints_clean(capsys, monkeypatch):
    # What ``make lint`` runs on an image without ruff.
    monkeypatch.chdir(REPO_ROOT)
    assert lint_fallback.main([]) == 0, capsys.readouterr().out
