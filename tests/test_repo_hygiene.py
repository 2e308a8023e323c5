"""Repo hygiene: build and bench artifacts can never be committed again.

A stray ``src/repro/orchestrate/__pycache__`` once rode into a commit,
and bench artifacts once made every tier-1 run dirty the tree;
``.gitignore`` now blocks both classes and these tests keep the git
index honest even if an ignore rule is bypassed with ``git add -f``.
"""

import fnmatch
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def tracked_files() -> list[str]:
    try:
        output = subprocess.run(
            ["git", "ls-files"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        pytest.skip("git unavailable or not a work tree")
    if not output.strip():
        pytest.skip("empty git index (exported tree?)")
    return output.splitlines()


def test_no_bytecode_or_pycache_tracked():
    offenders = [
        path
        for path in tracked_files()
        if "__pycache__" in path or path.endswith((".pyc", ".pyo"))
    ]
    assert not offenders, (
        f"compiled python artifacts are tracked: {offenders}; "
        f"git rm -r --cached them (they are .gitignore'd)"
    )


def test_gitignore_blocks_pycache_everywhere():
    text = (REPO_ROOT / ".gitignore").read_text()
    assert "__pycache__/" in text
    assert "src/**/__pycache__/" in text  # belt and braces for src


def test_no_bench_artifacts_tracked():
    """Bench runs rewrite every ``BENCH_*.json``, so tracking one means a
    tier-1 run dirties the tree (``BENCHMARK.json`` is the benchmark's
    declaration, not an artifact, and does not match)."""
    offenders = [
        path
        for path in tracked_files()
        if fnmatch.fnmatch(Path(path).name, "BENCH_*.json")
    ]
    assert not offenders, (
        f"bench artifacts are tracked: {offenders}; git rm --cached "
        f"them (they are .gitignore'd)"
    )
