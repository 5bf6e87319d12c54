"""Environment of a benchmark run.

Timings from different machines, BLAS builds or thread counts are not
comparable; ``env_key`` hashes everything that must match before two
results may be compared.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _loaded_libraries(fragment):
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = {line.split()[-1] for line in maps.splitlines()
             if line.split()[-1].startswith("/")}
    return sorted(p for p in paths if fragment in p.rsplit("/", 1)[-1].lower())


def _blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        info = {}
    threads = None
    for path in _loaded_libraries("blas"):
        lib = ctypes.CDLL(path)
        for name in _THREAD_QUERIES:
            query = getattr(lib, name, None)
            if query is not None:
                query.argtypes, query.restype = [], ctypes.c_int
                threads = int(query())
                break
        if threads is not None:
            break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path):
    """HEAD when root is itself a git checkout, else None (git is not
    asked to search the directories above root)."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def tree_sha256(directory: Path, pattern: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob(pattern)):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(directory)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def capture(root: Path) -> dict:
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
    }
    key = hashlib.sha256(json.dumps(machine, sort_keys=True).encode())
    return {
        **machine,
        "env_key": key.hexdigest()[:12],
        "git_commit": _git_commit(root),
        "src_sha256": tree_sha256(root / "src" / "spdc1d", "*.py"),
        "bench_sha256": tree_sha256(root / "perfbench", "*.py"),
    }
