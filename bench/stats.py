"""Summary statistics and the run record shared by run.py, suite.py and compare.py."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path


def summary(values: list[float]) -> dict:
    """Sample count, median, quartiles, and the highest percentile with at
    least ten samples beyond it (absent below eleven samples)."""
    vals = sorted(values)
    n = len(vals)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = vals[0]
    out = {"n": n, "median": statistics.median(vals), "q1": q1, "q3": q3, "samples": values}
    if n >= 11:
        out["p_hi"] = {"percentile": 100.0 * (n - 10) / n, "value": vals[n - 11]}
    return out


def spread(s: dict) -> float:
    """Distance between the quartiles as a share of the median."""
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def load_benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git(root: Path, *args: str) -> str | None:
    # The ceiling keeps git from walking up out of the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    """Commit, dirty flag, interpreter, CPU and load; None where unknown."""
    head = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if head else None
    return {
        "commit": head.strip() if head else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }
