"""tools/digest.py runs, prints a line for every family, and a fresh
interpreter gives each Monte-Carlo and analytic line of this one."""
import importlib.util
import pathlib
import re
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def test_fresh_process_prints_every_family():
    spec = importlib.util.spec_from_file_location("digest", SCRIPT)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          check=True, timeout=60)
    lines = dict(line.split(" ") for line in done.stdout.splitlines())
    families = [name.split(".")[0] for name in lines]
    assert sorted(set(families), key=families.index) == list(digest.FAMILIES)
    assert all(re.fullmatch("[0-9a-f]{64}", value) for value in lines.values())
    assert {f"figures.{fid}" for fid in ("out-quantized", "cosine-histogram")} <= set(lines)
    for family, count in (("montecarlo", 9), ("analytic", 2)):
        digests = digest.FAMILIES[family]()
        assert len(digests) == count
        assert {name: lines[name] for name in digests} == digests
