"""The environment record stored with every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _first_line(command: list[str], cwd: Path) -> str | None:
    try:
        done = subprocess.run(
            command, cwd=cwd, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.strip().splitlines()
    return lines[0] if done.returncode == 0 and lines else None


def source_digest(src: Path) -> str:
    """sha256 over every ``.py`` file under ``src`` (path + bytes), so
    a result names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` when ``root`` is itself a git work tree."""
    top = _first_line(["git", "rev-parse", "--show-toplevel"], root)
    if top is None or Path(top).resolve() != root.resolve():
        return None
    return _first_line(["git", "rev-parse", "HEAD"], root)


def environment(root: Path) -> dict:
    """nproc, interpreter and numpy versions, backends, compiler, code."""
    import numpy

    from repro.engine import available_backends, resolve_backend

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "available_backends": list(available_backends()),
        "auto_backend": resolve_backend("auto"),
        "cc": _first_line([os.environ.get("CC", "cc"), "--version"], root),
        "git_commit": git_commit(root),
        "source_digest": source_digest(root / "src"),
    }
