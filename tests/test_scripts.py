"""Tiny smoke runs of the scripts in scripts/: the examples, which drive the
CLI's prepare, train, generate and ablate commands end to end, and the bit
digest."""

from __future__ import annotations

import re
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


def test_bit_digest_prints_one_digest_per_section_and_overall(capsys):
    outputs = []
    for _ in range(2):
        runpy.run_path(str(SCRIPTS / "bit_digest.py"), run_name="__main__")
        outputs.append(capsys.readouterr().out)
    lines = outputs[0].splitlines()
    # Five variants at one and two layers, five sections each, then the
    # overall digest.
    assert len(lines) == 51 and lines[-1].startswith("overall ")
    sections = ("walk", "batch", "training", "perplexity", "beam")
    assert [line.split()[2] for line in lines[:-1]] == list(sections) * 10
    assert [line.split()[:2] for line in lines[:-1:5]] == [
        [variant, f"layers={layers}"]
        for variant in ("Seq2Seq", "Seq2Seq+Emb", "+Mem", "+CoAtt", "PCGN")
        for layers in (1, 2)
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[-1]) for line in lines)
    assert len({line.split()[-1] for line in lines}) == 51
    assert outputs[1] == outputs[0]
