"""Deterministic fault injection for recovery drills.

Nothing in a fault-tolerance story is real until the faults can be produced
on demand.  A :class:`FaultPlan` schedules faults at exact
``(phase, epoch, batch)`` coordinates — or samples them from a seeded RNG —
and the training loops consult it at every batch boundary:

* **NaN injection** poisons that batch's targets with NaN, so the loss goes
  non-finite through the *genuine* arithmetic path and trips the same
  divergence detection a real blow-up would.
* **Interrupt injection** raises :class:`KeyboardInterrupt` mid-epoch,
  standing in for a SIGINT/kill at an arbitrary point; tests then resume
  from checkpoints exactly as an operator would.
* **File corruption helpers** (:meth:`FaultPlan.truncate_file`,
  :meth:`FaultPlan.corrupt_file`) damage on-disk artifacts to prove that
  loads fail closed.
* **Record corruption helpers** (:meth:`FaultPlan.corrupt_record`,
  :meth:`FaultPlan.corrupt_records`,
  :meth:`FaultPlan.corrupt_random_records`) overwrite exactly the chosen
  records of a saved dataset archive with seeded in-range noise — the
  archive stays loadable, so only per-record integrity checks (manifest
  hashes, golden-geometry validation) can catch the damage.  Data-layer
  drills use this to prove quarantine is exact: k corrupted records in,
  exactly those k quarantined out.
* **Degenerate-output injection** (:meth:`FaultPlan.inject_degenerate`,
  :meth:`FaultPlan.degrade_output`) blanks the generator's output for
  scheduled clip indices, so serving drills can prove the output guards and
  the fallback ladder fire — deterministically, per clip.
* **Serving-loop stall injection** (:meth:`FaultPlan.inject_slow_every`,
  :meth:`FaultPlan.inject_wedge`) delays every n-th forward batch of the
  continuous-batching executor or wedges it at an exact batch index, so
  soak drills can prove latency degrades gracefully under slow workers and
  that the watchdog converts a hung executor into typed answers for every
  pending request, never a hang.
* **Worker-crash injection** (:meth:`FaultPlan.inject_worker_crash`) kills
  a scheduled parallel shard's worker hard (``os._exit`` in a child
  process), so fan-out drills can prove crash containment: the parent must
  convert the dead worker into a :class:`~repro.errors.ParallelError`
  naming the shard, never a hang.

Each scheduled fault fires once (unless ``repeat=True``), so a recovered
retry of the same epoch proceeds cleanly — mirroring transient real-world
failures.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from ..errors import ConfigError

PathLike = Union[str, Path]

_Site = Tuple[str, int, int]


class FaultPlan:
    """A deterministic, seed-driven schedule of training faults."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._nan: Dict[_Site, bool] = {}
        self._interrupt: Dict[_Site, bool] = {}
        self._degenerate: Dict[int, bool] = {}
        self._worker_crash: Dict[int, bool] = {}
        self._slow_every: Tuple[int, float] = (0, 0.0)
        self._wedge: Dict[int, float] = {}
        #: chronological record of fired faults: (kind, phase, epoch, batch)
        self.fired: List[Tuple[str, str, int, int]] = []

    # -- scheduling ----------------------------------------------------------

    @staticmethod
    def _site(phase: str, epoch: int, batch: int) -> _Site:
        if epoch < 1:
            raise ConfigError(f"fault epoch must be >= 1, got {epoch}")
        if batch < 0:
            raise ConfigError(f"fault batch must be >= 0, got {batch}")
        return (str(phase), int(epoch), int(batch))

    def inject_nan(self, phase: str, epoch: int, batch: int = 0,
                   repeat: bool = False) -> "FaultPlan":
        """Poison one batch's targets with NaN at the given site."""
        self._nan[self._site(phase, epoch, batch)] = repeat
        return self

    def inject_interrupt(self, phase: str, epoch: int, batch: int = 0,
                         repeat: bool = False) -> "FaultPlan":
        """Raise ``KeyboardInterrupt`` (a simulated kill) at the given site."""
        self._interrupt[self._site(phase, epoch, batch)] = repeat
        return self

    def inject_degenerate(self, clip: int, repeat: bool = False) -> "FaultPlan":
        """Blank the generator's output for serving clip index ``clip``."""
        if clip < 0:
            raise ConfigError(f"fault clip index must be >= 0, got {clip}")
        self._degenerate[int(clip)] = repeat
        return self

    def inject_random_degenerate(self, total: int,
                                 fraction: float) -> Tuple[int, ...]:
        """Schedule degenerate outputs for ``round(fraction * total)`` clips.

        Clip indices are drawn without replacement from the plan's seeded
        RNG; the chosen (sorted) indices are returned so drills can assert
        an exact fallback count.
        """
        if total < 1:
            raise ConfigError(f"total must be >= 1, got {total}")
        if not 0 <= fraction <= 1:
            raise ConfigError(
                f"fraction must lie in [0, 1], got {fraction}"
            )
        count = int(round(fraction * total))
        chosen = np.sort(self._rng.choice(total, size=count, replace=False))
        for clip in chosen:
            self.inject_degenerate(int(clip))
        return tuple(int(clip) for clip in chosen)

    def inject_worker_crash(self, shard: int,
                            repeat: bool = False) -> "FaultPlan":
        """Kill the worker assigned to parallel shard index ``shard``.

        The worker pool consumes this flag at dispatch time via
        :meth:`take_worker_crash`; on the process backend the flagged
        worker dies via ``os._exit`` (invisible to ``except`` clauses),
        on serial/thread backends the crash is modelled as an immediate
        contained failure.  Either way the caller sees a named
        :class:`~repro.errors.ParallelError`.
        """
        if shard < 0:
            raise ConfigError(f"fault shard index must be >= 0, got {shard}")
        self._worker_crash[int(shard)] = repeat
        return self

    def inject_slow_every(self, every: int, seconds: float) -> "FaultPlan":
        """Delay every ``every``-th serving-loop batch by ``seconds``.

        Models a fleet with a persistent slow worker: each delayed batch
        still completes and every request is answered, but latency (and
        queue depth behind it) spikes.  The serving loop consumes the delay
        via :meth:`batch_delay`.
        """
        if every < 1:
            raise ConfigError(f"fault period must be >= 1, got {every}")
        if seconds < 0:
            raise ConfigError(f"fault delay must be >= 0, got {seconds}")
        self._slow_every = (int(every), float(seconds))
        return self

    def inject_wedge(self, batch: int, seconds: float) -> "FaultPlan":
        """Wedge the serving-loop executor on batch index ``batch``.

        Unlike a slow batch, a wedge models a *hung* executor (deadlocked
        BLAS call, stuck I/O): the serving loop blocks interruptibly for up
        to ``seconds`` and its watchdog must convert the stall into typed
        failures for every pending request rather than letting callers
        hang.  Consumed via :meth:`wedge_delay`.
        """
        if batch < 0:
            raise ConfigError(f"fault batch index must be >= 0, got {batch}")
        if seconds <= 0:
            raise ConfigError(f"wedge duration must be > 0, got {seconds}")
        self._wedge[int(batch)] = float(seconds)
        return self

    @property
    def pending(self) -> int:
        """Number of scheduled faults that have not fired yet."""
        return (len(self._nan) + len(self._interrupt)
                + len(self._degenerate) + len(self._worker_crash)
                + len(self._wedge))

    # -- runtime hooks (called by the training loops) ------------------------

    def on_batch_start(self, phase: str, epoch: int, batch: int) -> None:
        """Fire a scheduled interrupt for this site, if any."""
        site = (phase, epoch, batch)
        if site in self._interrupt:
            if not self._interrupt[site]:
                del self._interrupt[site]
            self.fired.append(("interrupt", *site))
            raise KeyboardInterrupt(
                f"fault injection: simulated kill at {phase} "
                f"epoch {epoch}, batch {batch}"
            )

    def poison(self, phase: str, epoch: int, batch: int,
               array: np.ndarray) -> np.ndarray:
        """Return ``array``, NaN-poisoned if a NaN fault is scheduled here."""
        site = (phase, epoch, batch)
        if site not in self._nan:
            return array
        if not self._nan[site]:
            del self._nan[site]
        self.fired.append(("nan", *site))
        return np.full_like(np.asarray(array, dtype=np.float32), np.nan)

    def degrade_output(self, clip: int, array: np.ndarray) -> np.ndarray:
        """Return ``array``, blanked if a degenerate fault is scheduled here.

        Called by the serving layer on each generator output; an all-zero
        window is unconditionally degenerate (empty pattern), so the guard
        and fallback ladder exercise their real code paths.
        """
        clip = int(clip)
        if clip not in self._degenerate:
            return array
        if not self._degenerate[clip]:
            del self._degenerate[clip]
        self.fired.append(("degenerate", "serve", clip, 0))
        return np.zeros_like(np.asarray(array, dtype=np.float32))

    def batch_delay(self, batch: int) -> float:
        """Return the slow-batch delay for ``batch`` (0.0 if none).

        Delays fire on every multiple of the ``inject_slow_every`` period
        (batch 0 included, so ramp starts are exercised too).
        """
        batch = int(batch)
        every, seconds = self._slow_every
        if every > 0 and batch % every == 0:
            self.fired.append(("slow_batch", "serve", batch, 0))
            return seconds
        return 0.0

    def wedge_delay(self, batch: int) -> float:
        """Consume and return the wedge duration for ``batch`` (0.0 if none)."""
        batch = int(batch)
        if batch not in self._wedge:
            return 0.0
        seconds = self._wedge.pop(batch)
        self.fired.append(("wedge", "serve", batch, 0))
        return seconds

    def take_worker_crash(self, shard: int) -> bool:
        """Consume and report a pending worker-crash fault for ``shard``.

        Called by the worker pool at dispatch; consuming in the parent
        (rather than the doomed child) keeps the fired record intact when
        the process dies, so drills can still assert which shard was hit.
        """
        shard = int(shard)
        if shard not in self._worker_crash:
            return False
        if not self._worker_crash[shard]:
            del self._worker_crash[shard]
        self.fired.append(("worker_crash", "parallel", shard, 0))
        return True

    # -- artifact corruption (used by tests and drills) ----------------------

    @staticmethod
    def truncate_file(path: PathLike, keep_bytes: int = 16) -> Path:
        """Chop a file down to its first ``keep_bytes`` bytes."""
        path = Path(path)
        data = path.read_bytes()
        path.write_bytes(data[:keep_bytes])
        return path

    def corrupt_record(self, path: PathLike, index: int) -> Path:
        """Overwrite one record of a saved dataset archive with noise.

        The record's mask, resist window, and center label are replaced with
        values drawn from the plan's seeded RNG — finite and inside [0, 1],
        so nothing at the archive level notices; only per-record validation
        (manifest hash mismatch, golden-geometry implausibility) can.  The
        archive is rewritten in place *without* touching its manifest
        sidecar, exactly like real bit rot after a valid save.
        """
        return self.corrupt_records(path, (index,))

    def corrupt_records(self, path: PathLike, indices) -> Path:
        """Overwrite the given records of a dataset archive with noise."""
        from ..errors import DataError
        from .atomic import atomic_savez

        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {key: data[key] for key in data.files}
        except (OSError, ValueError, KeyError) as exc:
            raise DataError(
                f"cannot corrupt records of unreadable archive {path}: {exc}"
            ) from exc
        for key in ("masks", "resists", "centers"):
            if key not in arrays:
                raise DataError(
                    f"{path} is not a dataset archive (missing {key!r})"
                )
        count = arrays["masks"].shape[0]
        for index in indices:
            index = int(index)
            if not 0 <= index < count:
                raise ConfigError(
                    f"record index {index} out of range for a {count}-record "
                    "archive"
                )
            arrays["masks"][index] = self._rng.random(
                arrays["masks"][index].shape, dtype=np.float32
            )
            arrays["resists"][index] = self._rng.random(
                arrays["resists"][index].shape, dtype=np.float32
            )
            arrays["centers"][index] = self._rng.random(2) * (
                arrays["resists"].shape[-1] - 1
            )
            self.fired.append(("corrupt_record", str(path), index, 0))
        atomic_savez(path, arrays)
        return path

    def corrupt_random_records(self, path: PathLike,
                               count: int) -> Tuple[int, ...]:
        """Corrupt ``count`` seed-chosen distinct records of an archive.

        Returns the chosen (sorted) record indices so drills can assert an
        exact quarantine set.
        """
        if count < 1:
            raise ConfigError(f"count must be >= 1, got {count}")
        path = Path(path)
        with np.load(path, allow_pickle=False) as data:
            total = data["masks"].shape[0]
        if count > total:
            raise ConfigError(
                f"cannot corrupt {count} of only {total} records"
            )
        chosen = np.sort(self._rng.choice(total, size=count, replace=False))
        self.corrupt_records(path, chosen)
        return tuple(int(index) for index in chosen)

    @staticmethod
    def corrupt_file(path: PathLike, seed: int = 0,
                     span: int = 64) -> Path:
        """Overwrite a span in the middle of a file with deterministic junk.

        The file keeps its size, so corruption models bit rot rather than
        truncation; loaders must catch it via checksums or parse failures.
        """
        path = Path(path)
        data = bytearray(path.read_bytes())
        if not data:
            return path
        rng = np.random.default_rng(seed)
        span = min(span, len(data))
        start = (len(data) - span) // 2
        junk = rng.integers(0, 256, size=span, dtype=np.uint8).tobytes()
        data[start:start + span] = junk
        path.write_bytes(bytes(data))
        return path
