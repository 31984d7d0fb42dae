"""Smoke tests for the command-line scripts under ``scripts/``: each
prints its help, ``make_dataset.py`` writes a dataset the loader reads,
and ``run_synthetic_experiment.py`` runs at a small size, its rows
independent of the seed list."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from veridebate.evaluation import load_dataset
from veridebate.engine import log_from_json

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("make_dataset.py", "run_synthetic_experiment.py")
CELLS = ("c7-stance", "c7-role", "default-stance", "default-role")
VARIANTS = ["full", "no_debate", "no_analysis", "no_roles"]
SMALL = ("--train-size", 16, "--test-size", 8, "--epochs", 1)


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


def tables(stdout: str) -> dict[str, list[str]]:
    """The rows of each printed ablation table, by its heading."""
    blocks = {}
    for block in stdout.split("\n\n"):
        heading, *rows = block.strip().splitlines() or [""]
        if heading.startswith("== "):
            blocks[heading] = rows
    return blocks


def summary_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if " mean " in line]


@pytest.fixture(scope="module")
def one_seed() -> str:
    result = run_script("run_synthetic_experiment.py", *SMALL, "--seeds", 3)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def two_seeds() -> str:
    result = run_script("run_synthetic_experiment.py", *SMALL, "--seeds", "2-3")
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_synthetic_experiment_prints_each_variant_of_both_tasks(one_seed):
    """One table per cell, each with the full model and all three toggles."""
    printed = tables(one_seed)
    assert list(printed) == [f"== {cell} seed 3 ==" for cell in CELLS]
    for rows in printed.values():
        assert [row.split()[0] for row in rows[2:]] == VARIANTS


def test_synthetic_experiment_rows_do_not_depend_on_the_seed_list(one_seed, two_seeds):
    both = tables(two_seeds)
    assert list(both) == [f"== {cell} seed {seed} ==" for cell in CELLS for seed in (2, 3)]
    assert {heading: both[heading] for heading in tables(one_seed)} == tables(one_seed)


def test_synthetic_experiment_summarizes_only_several_seeds(one_seed, two_seeds):
    assert summary_lines(one_seed) == []
    lines = summary_lines(two_seeds)
    assert [line.split()[:3] for line in lines] == [
        [cell, variant, "mean"] for cell in CELLS for variant in VARIANTS]
    for line in lines:
        assert "min" in line and "max" in line and "spread" in line


def test_synthetic_experiment_refuses_an_empty_seed_range():
    result = run_script("run_synthetic_experiment.py", "--seeds", "5-3")
    assert result.returncode == 2
    assert "5-3" in result.stderr
