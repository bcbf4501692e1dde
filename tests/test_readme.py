"""The README's library example runs and prints the values it claims."""
import json
import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    code = _library_block()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    claims = re.findall(r"^(\S.*?)\s+#\s+(\d+\.\d+)\.\.\.$", code, re.M)
    assert claims
    for expr, value in claims:
        assert f"{eval(expr, namespace):.4f}" == value, expr
    arrays = re.findall(r"^(\S.*?)\s+#\s+(\[.*\])$", code, re.M)
    assert arrays
    for expr, value in arrays:  # four significant digits
        np.testing.assert_allclose(eval(expr, namespace), json.loads(value),
                                   rtol=5e-4, atol=0, err_msg=expr)
