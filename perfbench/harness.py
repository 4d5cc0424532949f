"""Process discipline, machine fingerprint and operation ledger.

Everything here is standard library only, so ``run.py`` can pin the
environment before numpy (and with it the BLAS library) is imported.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Variables that size the BLAS/OpenMP thread pools.  One thread per
#: process: the pool and the process lanes run ``nproc`` processes at
#: once, so any more would oversubscribe the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = 1


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_environment() -> list[str]:
    """Pin BLAS threads, keep temporary files inside the checkout and
    clear every ``REPRO_*`` override.

    Must run before numpy is imported.  Returns the names of the
    ``REPRO_*`` variables that were removed.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for k in cleared:
        del os.environ[k]
    return cleared


def process_age_s() -> float:
    """Seconds since this process was created (0.0 where unknown).

    Covers interpreter start-up, which no timer inside the script sees.
    """
    try:
        stat = Path("/proc/self/stat").read_text()
        start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def peak_rss_mib() -> float:
    """Larger of this process's peak RSS and that of any waited-for
    child (pool workers, process lanes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> dict:
    """What a timing depends on besides the code: cores, CPU, BLAS and
    library versions.  Records with different fingerprints are not
    comparable."""
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "blas_vendor": str(blas.get("name", "unknown")),
        "blas_version": str(blas.get("version", "unknown")),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# --- operation ledger --------------------------------------------------------

@dataclass
class Op:
    """One attempted operation and the checks made on its output."""

    name: str
    round: int
    wall_s: float = 0.0
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors)


class Ledger:
    """Every operation a run attempts, and why any of them failed.

    An exception inside an operation or a failed check marks that one
    operation failed; neither stops the run.
    """

    def __init__(self):
        self.ops: list[Op] = []
        self.round = 0

    def run(self, name: str, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)`` as one operation.

        Returns ``(op, value)``; ``value`` is ``None`` when it raised.
        """
        op = Op(name, self.round)
        self.ops.append(op)
        t0 = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as e:      # the run goes on; the op is failed
            value = None
            op.errors.append(f"{type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
        op.wall_s = time.perf_counter() - t0
        return op, value

    def check(self, op: Op, ok, what: str) -> bool:
        """Record a correctness check on ``op``'s output."""
        if not ok:
            op.errors.append(what)
            print(f"perfbench: check failed in {op.name} "
                  f"(round {op.round}): {what}", file=sys.stderr)
        return bool(ok)

    def close_to(self, op: Op, value, reference, tol: float,
                 what: str) -> bool:
        """Check ``|value - reference| <= tol`` (missing values fail)."""
        if value is None or reference is None:
            return self.check(op, False, f"{what}: value unavailable")
        err = abs(value - reference)
        return self.check(op, err <= tol,
                          f"{what}: |{value!r} - {reference!r}| = "
                          f"{err:.3e} > {tol:.1e}")

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)
