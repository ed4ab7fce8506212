"""Shared plumbing of the end-to-end benchmark: paths, the pinned child
environment, process control, percentiles and the result line."""

from __future__ import annotations

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: One BLAS/OpenMP thread in every process the benchmark runs: by default
#: OpenBLAS starts one thread per vCPU, which competes with the load
#: generator and the server's own threads and makes timings wander.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: glibc malloc arenas per process.  By default every thread may get its
#: own arena (up to 8 per vCPU); how many the server's executor threads end
#: up with varies from run to run and moved its peak RSS by 10%.
MALLOC_ARENAS = "2"

#: The program's own switches that change what runs or what it records.
#: Tracing stays off, replay stays at its default, no store cache is shared.
_PROGRAM_SWITCHES = (
    "REPRO_TRACE_",
    "REPRO_REPLAY",
    "REPRO_SUBGRAPH_CACHE",
    "REPRO_SANITIZE",
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes (artifacts, span dumps, server logs, results).
WORK_DIR = ROOT / ".e2ebench"

#: The serving graph: the ``repro fit mgtab`` default (400 users, seed 0).
#: Every run uses this graph (or ``FIT_DATASET`` below), so every seed does
#: the same amount of work; ``--seed`` varies what runs on it (the training
#: seed, the request streams).
DATASET = {"name": "mgtab", "num_users": 400, "tweets_per_user": 12, "seed": 0}
#: The ``fit`` workload's graph: the same generator at half the users.  A
#: 25-s run then holds about seven fit rounds instead of two to four, so
#: the ~10% wander of round times on a shared host weighs less in their
#: median; and ten epochs beat the majority rate by 17.5-22.5 points over
#: training seeds 0-19, where at 400 users seed 308 cleared the accuracy
#: check's 10-point margin by two test nodes.
FIT_DATASET = {**DATASET, "num_users": 200}
#: Pinned epoch count (``min_epochs = max_epochs``): the work per fit is
#: constant, so a change in numerics cannot pass for a change in speed.
EPOCHS = 10
#: Training seed of the artifact the serving workloads run on.
SERVE_SEED = 0


def pin_threads() -> None:
    """Pin this process's BLAS/OpenMP pools; call before NumPy is imported."""
    os.environ.update(THREAD_PINS)


def require_program() -> None:
    """Exit non-zero, printing no result, when the program is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(_PROGRAM_SWITCHES)
    }
    env.update(THREAD_PINS)
    env["MALLOC_ARENA_MAX"] = MALLOC_ARENAS
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _die_with_parent() -> None:  # pragma: no cover - runs in the child
    """Ask the kernel to SIGKILL this child when the benchmark dies."""
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except OSError:
        pass


def spawn(argv: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start a child in the checkout with the pinned environment."""
    return subprocess.Popen(
        list(argv),
        cwd=str(ROOT),
        env=child_env(),
        preexec_fn=_die_with_parent,
        **kwargs,
    )


def stop(process: Optional[subprocess.Popen], grace_s: float = 15.0) -> Optional[int]:
    """SIGINT, then SIGKILL after ``grace_s``; always waits for the exit."""
    if process is None:
        return None
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(grace_s)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    return process.returncode


def raise_on_sigterm() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks stop children."""

    def handler(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of ``pid`` (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def host_ticks() -> tuple:
    """(steal, total) jiffies of the whole machine, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_share(before: tuple, after: tuple) -> float:
    """Share of the machine's CPU time stolen by the hypervisor between two
    :func:`host_ticks` readings (context for a noisy run, not a metric)."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


class Percentiles:
    """Nearest-rank percentiles that state their sample count.

    A tail percentile is refused unless at least ten samples lie beyond it;
    the median is always allowed (with one sample it is that sample).
    """

    MIN_BEYOND = 10

    def __init__(self, values: Iterable[float]) -> None:
        self.values = sorted(float(value) for value in values)
        if not self.values:
            raise ValueError("no samples")

    @property
    def count(self) -> int:
        return len(self.values)

    def beyond(self, q: float) -> int:
        """Samples strictly above the ``q``-th percentile's rank."""
        return self.count - max(1, math.ceil(q / 100.0 * self.count))

    def at(self, q: float) -> float:
        if not 0.0 < q < 100.0:
            raise ValueError("percentile must lie in (0, 100)")
        if q > 50.0 and self.beyond(q) < self.MIN_BEYOND:
            raise ValueError(
                f"p{q:g} of {self.count} samples has {self.beyond(q)} beyond it; "
                f"need {self.MIN_BEYOND}"
            )
        return self.values[max(1, math.ceil(q / 100.0 * self.count)) - 1]

    def median(self) -> float:
        return self.at(50.0)

    def tail(self) -> Optional[float]:
        """The highest of p99/p95/p90 the sample supports (None under 40)."""
        if self.count < 40:
            return None
        for q in (99.0, 95.0, 90.0):
            if self.beyond(q) >= self.MIN_BEYOND:
                return q
        return None

    def describe(self, unit: str) -> str:
        text = f"p50 {self.median():.4g} {unit} (n={self.count})"
        q = self.tail()
        if q is not None:
            text += f", p{q:g} {self.at(q):.4g} {unit}"
        return text


def window_medians(records: List[dict], start: float, width: float, count: int,
                   value) -> List[float]:
    """Per-window medians of ``value(record)`` over ``count`` windows of
    ``width`` seconds from ``start``, records placed by their end time.

    Reporting the median over windows keeps a stall of the machine that
    covers less than half of the windows (hypervisor steal comes in phases
    of seconds) out of the figure."""
    bins: List[List[float]] = [[] for _ in range(count)]
    for record in records:
        index = int((record["end"] - start) // width)
        if 0 <= index < count:
            bins[index].append(value(record))
    return [statistics.median(values) for values in bins if values]


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, tuple]) -> None:
    """Print the result object as the last line of standard output."""
    line = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(line), flush=True)


def log(message: str) -> None:
    """Human-readable progress on standard output (never the last line)."""
    print(f"[e2ebench {time.strftime('%H:%M:%S')}] {message}", flush=True)


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def trimmed_mean(values: Sequence[float], trim: float) -> float:
    """Mean of ``values`` without the lowest and highest ``trim`` share."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    cut = int(trim * len(ordered))
    return statistics.fmean(ordered[cut:len(ordered) - cut])
