"""README's library example runs and gives the rows its comment shows."""

import ast
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_gives_the_rows_in_its_comment():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    namespace = {}
    exec(block, namespace)
    shown = " ".join(ln[1:] for ln in block.splitlines() if ln.startswith("#"))
    assert namespace["rows"] == ast.literal_eval(shown)
