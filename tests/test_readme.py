"""The README's Python examples run against the library as it is."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_blocks_run_in_order():
    # later blocks use the names earlier ones define, as a reader would
    blocks = _python_blocks()
    assert len(blocks) >= 3
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert "# compare=pass" in out.getvalue()
