"""The README's library example, run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments(capsys):
    """The one ```python block runs and prints the values its comments
    name: the verdict, the distinct distances and the partitions."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out == "non_colorable\n77\n10328\n"
