"""The Python examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert any("fock_transition_matrix" in block for block in blocks)
    namespace = {}  # a later example may reuse an earlier one's names
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        printed = capsys.readouterr().out.split()
        if "fock_transition_matrix" in block:
            # the README comments: the closed form and the propagated
            # reference agree; the block prints that gap last
            assert float(printed[-1]) < 1e-9
