"""The README's library example runs as documented."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 1, "expected one python block under ## Library"
    return blocks[0]


def test_library_example_runs():
    exec(compile(_library_example(), str(README), "exec"), {})
