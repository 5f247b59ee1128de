"""The README's python example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs():
    block, = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
