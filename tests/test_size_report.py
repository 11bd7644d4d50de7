import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_listing_has_as_many_entries_as_the_printed_counts():
    cmd = [sys.executable, str(ROOT / "tools" / "size_report.py"), str(ROOT / "src" / "maxent_hjb")]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    counts = dict(line.split(": ") for line in out[:3])
    listed = [line.split(" ", 1) for line in out[3:]]
    tags = [tag for tag, _ in listed]
    assert tags.count("settable") == int(counts["settable values"])
    assert tags.count("exported") == int(counts["exported names"])
    assert len(tags) == int(counts["settable values"]) + int(counts["exported names"])
    names = [name for _, name in listed]
    assert len(set(names)) == len(names)
    assert {"godunov:godunov_solve.cfl", "godunov:godunov_solve"} <= set(names)
