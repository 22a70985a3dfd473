"""Packaging: every console script that pyproject.toml declares is a
function the package defines, so an installed command does not fail on
import.  The table is read by a small line reader, since tomllib is not in
Python 3.10, the oldest supported version."""

from __future__ import annotations

import importlib
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def project_scripts(text: str) -> dict[str, str]:
    """The [project.scripts] table of a pyproject.toml, name -> target, for
    entries written one `name = "module:function"` a line; blank lines and
    comments are skipped."""
    scripts, inside = {}, False
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and line:
            name, _, target = line.partition("=")
            scripts[name.strip().strip("\"'")] = target.strip().strip("\"'")
    return scripts


def unimportable(scripts: dict[str, str]) -> list[str]:
    """The entries whose module does not import or defines no such callable."""
    bad = []
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            ok = callable(getattr(importlib.import_module(module), attr))
        except (ImportError, AttributeError):
            ok = False
        if not ok:
            bad.append(f"{name} = {target}")
    return bad


def test_script_reader():
    text = ('[project]\nname = "modalg"\n\n[project.scripts]\n# the command\n'
            'modalg = "modalg.cli:main"\nrelations = \'modalg.hull:find_relations\'  # ok\n'
            'missing = "modalg.hull:no_such_function"\n\n[tool.pytest.ini_options]\n'
            'testpaths = ["tests"]\n')
    scripts = project_scripts(text)
    assert scripts == {"modalg": "modalg.cli:main", "relations": "modalg.hull:find_relations",
                       "missing": "modalg.hull:no_such_function"}
    assert unimportable(scripts) == ["modalg = modalg.cli:main",
                                     "missing = modalg.hull:no_such_function"]


def test_declared_scripts_import():
    assert unimportable(project_scripts(PYPROJECT.read_text())) == []
