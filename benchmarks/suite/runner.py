"""Running worker processes, summarizing samples and stamping records."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional, Sequence

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
SRC = ROOT / "src"
OUT_DIR = SUITE_DIR / "out"

#: a worker that has not finished by then is killed and counts as failed
WORKER_TIMEOUT_S = 170


def worker_env(src: Path) -> Dict[str, str]:
    """One thread, a fixed hash seed, and ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(name: str, seed: int, mode: str, src: Path = SRC,
               chrome_trace: Optional[Path] = None) -> Dict:
    """One repeat in a fresh interpreter; errors come back as a record
    with an ``error`` key instead of the measurements."""
    command = [sys.executable, "-m", "benchmarks.suite.worker", name,
               str(seed), mode]
    if chrome_trace is not None:
        command.append(str(chrome_trace))
    failure = {"workload": name, "seed": seed, "mode": mode}
    try:
        proc = subprocess.run(command, cwd=ROOT, env=worker_env(src),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {**failure, "error": f"timed out after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {**failure,
                "error": f"exit {proc.returncode}: " + " | ".join(tail)}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {**failure, "error": "worker printed no JSON result"}


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, p25/p75 (``statistics.quantiles``) and the sample count."""
    if len(values) >= 2:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {"median": statistics.median(values), "p25": p25, "p75": p75,
            "n": len(values)}


def git(*args: str) -> Optional[str]:
    """``git`` output in the checkout, or None when it is not a repository."""
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance() -> Dict:
    """Git rev and dirty flag, CPU model, ``nproc`` and Python version."""
    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if rev else None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"git_rev": rev,
            "git_dirty": None if status is None else bool(status),
            "cpu_model": _cpu_model(), "nproc": nproc,
            "python": platform.python_version(),
            "platform": platform.platform()}


def write_record(path: Optional[Path], record: Dict) -> Path:
    """Write ``record`` as JSON, by default to a stamped file in ``out/``."""
    if path is None:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")  # simlint: disable=SIM101, SIM110 -- names the record file; never enters simulated state
        path = OUT_DIR / f"record-{stamp}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path
