"""The README's library example runs and prints the values it claims."""
import pathlib
import re

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
