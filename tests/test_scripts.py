"""Smoke test: scripts/run_default_dataset.py runs every command to completion."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_default_dataset_exits_0(tmp_path):
    # all 18 commands, repeater --source semi --sweep eta among them
    result = run_script("run_default_dataset.py", ["--out", str(tmp_path)])
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "repeater_source_semi_sweep_eta" / "repeater_semi_sweep_eta.csv").is_file()
    # one directory per command, each with a manifest of exactly its own files
    subdirs = sorted(p for p in tmp_path.iterdir())
    assert len(subdirs) == 18 and all(p.is_dir() for p in subdirs)
    for sub in subdirs:
        manifest = json.loads((sub / "manifest.json").read_text())
        files = {p.name: p.read_bytes() for p in sub.iterdir() if p.name != "manifest.json"}
        assert files, sub.name
        assert manifest["outputs"] == {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
