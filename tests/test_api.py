"""Top-level exports: the documented names, and the imports the docs use."""
import ast
import re
from pathlib import Path

import beamchan

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def readme_export_list():
    paragraph = next(p for p in README.split("\n\n")
                     if "exports exactly these names:" in p)
    return re.findall(r"`(\w+)`", paragraph.split("names:", 1)[1])


def imported_from_beamchan(source):
    tree = ast.parse(source)
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "beamchan"
            for alias in node.names}


def test_all_is_the_readme_list():
    names = readme_export_list()
    assert len(names) == len(set(names))
    assert sorted(beamchan.__all__) == sorted(names)


def test_documented_imports_resolve():
    sources = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    sources += [p.read_text(encoding="utf-8")
                for p in sorted((ROOT / "demos").glob("*.py"))]
    names = set().union(*(imported_from_beamchan(src) for src in sources))
    assert names, "no `from beamchan import` line found"
    for name in sorted(names):
        assert hasattr(beamchan, name), name
        assert name in beamchan.__all__, name
