"""The host: its record, its steal share, and its speed at run time.

One BLAS thread is the benchmark's setting (``run.py`` exports it before any
worker starts).  At reduced scale a second OpenBLAS thread doubles the CPU
cost of a generator forward without gaining wall time and widens the
spread; at paper scale it would be worth about 13% per clip, which this
setting gives up.
"""

from __future__ import annotations

import bisect
import ctypes
import os
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

#: seconds one repetition of the speed probe's kernel takes at the
#: reference speed; reported times are times at this speed
REFERENCE_REP_S = 2.0e-3
#: the host speed at an instant comes from the samples within this many
#: seconds of it (see ``SpeedProbe.scale``)
SPEED_WINDOW_S = 1.5


class SpeedProbe:
    """The host's speed, sampled by timing a fixed NumPy kernel.

    On a small shared host one-thread compute speed drifts in waves that
    last minutes (by up to a factor of two), and every phase of the program
    slows with it, so ten consecutive runs of the same code spread by more
    than a regression bound however long each run is.  This kernel slows
    with them.  One repetition runs three parts of about equal time, each
    slowed by a different kind of contention: a float32 matmul with an
    elementwise pass over 1 MB, a batch-1 im2col convolution of the size
    the reduced-scale networks run, and a loop of small-array calls that is
    mostly interpreter and dispatch time.  A workload samples it between
    its operations, never during one, and multiplies each operation's time
    by ``scale`` there: the reported time is the time at the speed where
    one repetition takes ``REFERENCE_REP_S``.  The kernel is benchmark
    code, the same on every program version, on one BLAS thread, and its
    raw times are kept in the run record.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((64, 576), dtype=np.float32)
        self._b = rng.standard_normal((576, 1024), dtype=np.float32)
        self._x = rng.standard_normal((64, 64, 64), dtype=np.float32)
        image = rng.standard_normal((16, 36, 36), dtype=np.float32)
        c, h, w = image.strides
        self._patches = np.lib.stride_tricks.as_strided(
            image, (16, 5, 5, 32, 32), (c, h, w, h, w))
        self._kernel = rng.standard_normal((32, 16 * 5 * 5), dtype=np.float32)
        self._small = rng.standard_normal((16, 16), dtype=np.float32)
        # Every large temporary is allocated here, once, so sampling
        # between operations leaves the process's peak RSS alone.
        self._ab = np.empty((64, 1024), np.float32)
        self._xt = np.empty_like(self._x)
        self._cols = np.empty((16, 5, 5, 32, 32), np.float32)
        self._conv = np.empty((32, 32 * 32), np.float32)
        self._leak = np.empty_like(self._conv)
        #: ``perf_counter`` midpoint and seconds per repetition of each sample
        self.times: List[float] = []
        self.rep_s: List[float] = []

    def _repetition(self) -> None:
        np = self._np
        np.matmul(self._a, self._b, out=self._ab)
        np.maximum(self._x, 0.1, out=self._xt)
        np.multiply(self._xt, 1.5, out=self._xt)
        self._xt.sum()
        np.copyto(self._cols, self._patches)
        np.matmul(self._kernel, self._cols.reshape(16 * 5 * 5, 32 * 32),
                  out=self._conv)
        np.multiply(self._conv, 0.2, out=self._leak)
        np.maximum(self._conv, self._leak, out=self._conv)
        np.square(self._conv, out=self._conv)
        self._conv.mean()
        y = self._small
        for _ in range(300):
            y = np.tanh(y * 0.5 + 0.1)

    def sample(self, reps: int) -> None:
        started = time.perf_counter()
        for _ in range(reps):
            self._repetition()
        ended = time.perf_counter()
        self.times.append(0.5 * (started + ended))
        self.rep_s.append((ended - started) / reps)

    def scale(self, at: float) -> float:
        """Reference over measured speed at ``perf_counter`` time ``at``.

        A time multiplied by it is at reference speed.  It takes the median
        repetition time of the samples within ``SPEED_WINDOW_S`` of ``at``
        and of the nearest sample on each side, so an operation that ran
        around ``at`` is scaled by samples taken before and after it.
        """
        if not self.rep_s:
            raise RuntimeError("the speed probe has no samples")
        i = bisect.bisect_left(self.times, at)
        lo = min(bisect.bisect_left(self.times, at - SPEED_WINDOW_S),
                 max(i - 1, 0))
        hi = max(bisect.bisect_right(self.times, at + SPEED_WINDOW_S),
                 min(i + 1, len(self.times)))
        return REFERENCE_REP_S / statistics.median(self.rep_s[lo:hi])

    def record(self) -> dict:
        return {"rep_s": self.rep_s, "reference_rep_s": REFERENCE_REP_S}


def read_cpu_ticks() -> Optional[Dict[str, int]]:
    """Aggregate CPU ticks from ``/proc/stat`` (None where unavailable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    names = ("user", "nice", "system", "idle", "iowait", "irq", "softirq",
             "steal")
    values = [int(v) for v in fields[1:1 + len(names)]]
    return dict(zip(names, values))


def steal_share(before, after) -> float:
    """Share of CPU ticks stolen by the hypervisor between two readings."""
    if not before or not after:
        return 0.0
    total = sum(after.values()) - sum(before.values())
    if total <= 0:
        return 0.0
    return (after["steal"] - before["steal"]) / total


def _blas_runtime_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, asked through its C API."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    candidates = sorted(libs.glob("*openblas*.so*")) if libs.is_dir() else []
    symbols = ("scipy_openblas_get_num_threads64_",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in symbols:
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def host_record() -> dict:
    import numpy
    import scipy
    from repro.telemetry import build_fingerprint

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "blas": {
            "vendor": blas.get("name"),
            "version": blas.get("version"),
            "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "threads_runtime": _blas_runtime_threads(),
            "note": "one thread by design; paper scale gives up ~13%",
        },
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "build": build_fingerprint(),
    }
