"""Smoke tests for the command-line scripts under ``scripts/``: each
prints its help, ``make_dataset.py`` writes a dataset the loader reads,
and ``run_synthetic_experiment.py`` runs at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from veridebate.evaluation import load_dataset
from veridebate.engine import log_from_json

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("make_dataset.py", "run_synthetic_experiment.py", "seed_table.py")


def run_script(name: str, *args) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", SCRIPTS)
def test_help_exits_0(name):
    result = run_script(name, "--help")
    assert result.returncode == 0, result.stderr
    assert "usage:" in result.stdout


def test_make_dataset_writes_a_loadable_dataset(tmp_path):
    out, transcripts = tmp_path / "data.jsonl", tmp_path / "transcripts"
    result = run_script("make_dataset.py", "--out", out, "--train", 2, "--val", 1, "--test", 1,
                        "--seed", 3, "--transcripts-dir", transcripts)
    assert result.returncode == 0, result.stderr
    dataset = load_dataset(out)
    assert [len(dataset.split(name)) for name in ("train", "val", "test")] == [2, 1, 1]
    for item in dataset.items:
        log = log_from_json((transcripts / f"{item.id}.json").read_text(encoding="utf-8"))
        assert log.news_id == item.id


def test_synthetic_experiment_prints_each_variant_of_both_tasks():
    result = run_script("run_synthetic_experiment.py", "--train-size", 16, "--test-size", 8,
                        "--epochs", 1)
    assert result.returncode == 0, result.stderr
    rows = [line.split()[0] for line in result.stdout.splitlines() if line.startswith("no_")]
    assert rows == ["no_debate", "no_analysis", "no_roles"] * 2
