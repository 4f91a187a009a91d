"""The README's library example runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    mean, std, var5 = (float(x) for x in capsys.readouterr().out.split())
    assert math.isfinite(mean) and math.isfinite(var5) and std >= 0.0
