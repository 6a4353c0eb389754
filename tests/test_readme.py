"""The README's Python API example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert all(0.0 <= float(v) <= 1.0 for v in printed)
