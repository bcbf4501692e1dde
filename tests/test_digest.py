"""tools/digest.py runs without pytest, prints a line for every family, and
a fresh interpreter gives each Monte-Carlo, analytic and exact-cdf line
of this one, whose thread generator has been used."""
import importlib.util
import pathlib
import re
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "tools" / "digest.py"


def test_fresh_process_prints_every_family():
    code = ("import runpy, sys; sys.modules['pytest'] = None; "
            f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')")
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as fresh:
        try:
            spec = importlib.util.spec_from_file_location("digest", SCRIPT)
            digest = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(digest)
            # 37 rows x 7 links of link states, 259 words: this thread's
            # generator is left 3 words into a four-word Philox output
            sc = digest.Scenario(7, 0.45, scheme="perfect")
            digest.montecarlo.run(digest.montecarlo.McConfig(sc, 37, 1, seed=3))
            here = {family: digest.FAMILIES[family]()
                    for family in ("montecarlo", "analytic", "hankel")}
            out, err = fresh.communicate(timeout=60)
        finally:
            fresh.kill()  # a no-op once it has exited
    assert fresh.returncode == 0, err
    lines = dict(line.split(" ") for line in out.splitlines())
    families = [name.split(".")[0] for name in lines]
    assert sorted(set(families), key=families.index) == list(digest.FAMILIES)
    assert all(re.fullmatch("[0-9a-f]{64}", value) for value in lines.values())
    assert {f"figures.{fid}" for fid in ("out-quantized", "cosine-histogram")} <= set(lines)
    for family, count in (("montecarlo", 10), ("analytic", 2), ("hankel", 1)):
        assert len(here[family]) == count
        assert {name: lines[name] for name in here[family]} == here[family]
