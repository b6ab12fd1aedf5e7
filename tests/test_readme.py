"""The Python example in README.md runs as written."""

import re
from pathlib import Path

import numpy as np

from laxrom import eps_l2

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    # by t = 1 the pulse has moved from 0.25 to 0.75; 16 modes leave a
    # relative error of 0.047 there
    fem = scope["fem"]
    exact = np.exp(-250.0 * (fem.coords - 0.75) ** 2)
    assert eps_l2(fem, exact, scope["u_final"]) < 0.05
