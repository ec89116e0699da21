"""DESIGN.md §3's module map names exactly the modules under ``src/repro``.

Each table row reads ``| `repro.<pkg>` | `mod`, `mod`, ... | ... |``; a
top-level module (``repro/<name>.py``) has ``—`` in the modules column.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

_ROW = re.compile(r"^\| `repro\.(\w+)` \| ([^|]+) \|", re.M)


def _section_3() -> str:
    text = (ROOT / "DESIGN.md").read_text()
    start = text.index("\n## 3. ")
    return text[start:text.index("\n## 4. ", start)]


def _listed() -> set[str]:
    """Every module the table names, as a path relative to ``src/repro``."""
    modules: set[str] = set()
    for package, cell in _ROW.findall(_section_3()):
        names = re.findall(r"`(\w+)`", cell)
        if names:
            modules.update(f"{package}/{name}.py" for name in names)
        else:
            assert cell.strip() == "—", f"repro.{package}: unreadable modules cell {cell!r}"
            modules.add(f"{package}.py")
    return modules


def _actual() -> set[str]:
    return {
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }


def test_every_listed_module_exists():
    assert sorted(_listed() - _actual()) == []


def test_every_module_is_listed():
    assert sorted(_actual() - _listed()) == []
