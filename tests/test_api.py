"""Top-level exports: the documented names, and the imports the docs use."""
import ast
import re
from pathlib import Path

import numpy as np

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


def quickstart_realization_lines():
    """The Quickstart's imports, config line and realization paragraph."""
    block = re.findall(r"```python\n(.*?)```", README, flags=re.S)[0]
    keep = [p for p in block.split("\n\n")
            if p.startswith(("import ", "cfg = ", "# one channel realization"))]
    assert len(keep) == 3, keep
    return "\n\n".join(keep)


def test_quickstart_realization_fills_each_visible_block():
    namespace = {}
    exec(compile(quickstart_realization_lines(), "README.md", "exec"), namespace)
    clusters = namespace["clusters"]
    assert any(len(c.visible_rx) > 1 and len(c.visible_tx) > 1 for c in clusters)
    for real in (namespace["h"], namespace["hb"]):
        num_rx, num_tx, count = real.coeffs.shape
        assert count == len(clusters)
        for i, c in enumerate(clusters):
            rx = np.array([k in c.visible_rx for k in range(1, num_rx + 1)])
            tx = np.array([l in c.visible_tx for l in range(1, num_tx + 1)])
            block = rx[:, None] & tx[None, :]
            assert np.all(real.coeffs[:, :, i][block] != 0), (real.model, i)
            assert np.all(real.coeffs[:, :, i][~block] == 0), (real.model, i)
