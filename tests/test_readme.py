"""The README's library example runs as written; the package exports resolve."""

import re
from pathlib import Path

import chaoscope

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_all_exports_resolve():
    # `from chaoscope import *` fails on any name in __all__ the package lacks
    missing = [name for name in chaoscope.__all__ if not hasattr(chaoscope, name)]
    assert not missing
