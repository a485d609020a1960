"""The README's library tour runs, and ``__all__`` names only what the package defines.

Every fenced ``python`` block of README.md runs, in order, in one namespace,
so a name removed from the package but left in the tour fails here.
``from copulacheck import *`` fails on any ``__all__`` entry the package no
longer defines.
"""

import re
from pathlib import Path

import copulacheck

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_every_python_block_of_the_readme_runs():
    assert BLOCKS
    namespace: dict = {}
    for i, block in enumerate(BLOCKS, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from copulacheck import *", namespace)
    assert set(copulacheck.__all__) <= namespace.keys()
