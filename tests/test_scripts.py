"""Tiny smoke runs of the example scripts in scripts/, which drive the CLI's
prepare, train, generate and ablate commands end to end."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, artifact", [
    ("case_study.py", ["--records", "12", "--users", "2", "--epochs", "2"], "case_study.json"),
    ("run_ablation.py", ["--records", "12", "--users", "2", "--epochs", "1"], "ablation/ablation.json"),
])
def test_script_runs_and_writes_its_report(tmp_path, monkeypatch, script, args, artifact):
    # A failing CLI step makes the script raise SystemExit, which fails the test.
    monkeypatch.setattr(sys, "argv", [script, "--out", str(tmp_path), *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert (tmp_path / artifact).exists()
