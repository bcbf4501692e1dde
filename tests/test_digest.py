"""tools/digest.py runs, prints every family, and a fresh interpreter
gives the Monte-Carlo digest of this one."""
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
    lines = [line.split(" ") for line in done.stdout.splitlines()]
    assert [name for name, _ in lines] == list(digest.FAMILIES)
    assert all(re.fullmatch("[0-9a-f]{64}", value) for _, value in lines)
    assert dict(lines)["montecarlo"] == digest.FAMILIES["montecarlo"]()
