import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("artifact_check", ROOT / "tools" / "artifact_check.py")
artifact_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_check)


def test_one_tree_against_itself_is_identical(capsys):
    code = artifact_check.main([str(ROOT), str(ROOT), "--only", "ham-sweep-channel", "lq-exact"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "ham-sweep-channel/ham_sweep.csv: identical" in lines
    assert "lq-exact/P.txt: identical" in lines
    # the manifests differ in duration_s only, which is left out
    assert "lq-exact/manifest.json: identical" in lines
    assert lines[-1] == "7 of 7 artifacts identical across 2 runs"


def test_differences_are_reported_per_column_and_key(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "t.csv").write_text("x, W\n1, 2\n3, 4\n")
    (b / "t.csv").write_text("x, W\n1, 2\n3, 4.5\n")
    (a / "s.json").write_text(json.dumps({"k": 1, "n": {"m": 2}}))
    (b / "s.json").write_text(json.dumps({"k": 1, "n": {"m": 3}}))
    (a / "only.txt").write_text("1 1\n0\n")
    manifest = {"command": "c", "duration_s": 1.0, "outputs": [{"path": "t.csv", "sha256": "0"}]}
    (a / "manifest.json").write_text(json.dumps(manifest))
    (b / "manifest.json").write_text(json.dumps({**manifest, "duration_s": 2.0,
                                                 "outputs": [{"path": "t.csv", "sha256": "1"}]}))
    lines, same = artifact_check.compare_dirs("run", a, b)
    assert not same
    assert lines == [
        "run/manifest.json: identical",
        "run/only.txt: only in PARENT",
        "run/s.json: differs in n.m",
        "run/t.csv: differs: x abs 0 rel 0; W abs 0.5 rel 0.111",
    ]
