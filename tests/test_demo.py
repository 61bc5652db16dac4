"""The demo pipeline (`scripts/run_demo.py`) reproduces its five artifacts byte for byte."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# SHA-256 of each artifact of a run on a freshly built demo monolith.
ARTIFACT_SHA256 = {
    "decomposition.json": "f89314119e8021a7689012c4f89e4875798bf231fdbfe96f159dc31c30920941",
    "history.json": "3672458c5ee6a97ca1e2a1b8dea6bc8e6ba3f0d64e82d3d67d012241d1541e2c",
    "matrix.csv": "0d4483db37ead9c86655e8bad98bc0542ee8a59ec0cbf99d737489253b6d5f31",
    "report.json": "b09b7fb27f5a38d2e84837e344e295f2f6d409286ff1bd9c80f845e279d62ea7",
    "results.csv": "18ca39832a339d1588ea5762381fa09990754fc892f4519b44de2099612caa10",
}


def test_demo_artifacts_are_byte_identical(tmp_path):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "run_demo.py"),
            "--demo", str(tmp_path / "demo"),
            "--out", str(out),
        ],
        check=True,
        capture_output=True,
        env=env,
    )
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ARTIFACT_SHA256
    }
    assert digests == ARTIFACT_SHA256
    assert sorted(path.name for path in out.iterdir()) == sorted(ARTIFACT_SHA256)
