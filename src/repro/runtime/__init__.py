"""Fault-tolerant training runtime: checkpoints, recovery, fault injection.

Long adversarial training runs die in three ways: the process is killed, the
loss goes non-finite, or an artifact on disk is truncated/corrupted.  This
subsystem makes all three survivable — and, crucially, *injectable*, so the
recovery paths are provable rather than aspirational:

``repro.runtime.atomic``
    write-tmp → fsync → ``os.replace`` helpers behind every durable artifact.
``repro.runtime.checkpoint``
    :class:`CheckpointManager` — versioned, checksummed, retention-pruned
    snapshots of network/optimizer/RNG/history state, with manifest
    validation on load and bit-exact resume.
``repro.runtime.retry``
    :class:`RetrySchedule` / :func:`decay` — the shared deterministic
    retry-budget and backoff arithmetic (no RNG, no clock reads) behind
    both divergence recovery and the sweep supervisor.
``repro.runtime.recovery``
    :class:`RecoveryPolicy` — rollback-to-last-good plus learning-rate
    backoff with bounded retries when training diverges.
``repro.runtime.faults``
    :class:`FaultPlan` — deterministic NaN / interrupt / worker-crash /
    file-corruption injection used by tests and the CLI's ``--inject-*``
    flags.
``repro.runtime.parallel``
    :class:`WorkerPool` — deterministic fan-out over serial/thread/process
    backends with per-shard seeding, ordered reassembly, and crash
    containment (a dead worker becomes a named
    :class:`~repro.errors.ParallelError`, never a hang).
"""

from ..config import ParallelConfig, RecoveryConfig
from ..errors import CheckpointError, ParallelError
from .atomic import (
    atomic_savez,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    serialize_npz,
)
from .checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointManager,
    capture_rng_states,
    collect_rngs,
    extract_extras,
    load_checkpoint_source,
    pack_state,
    read_checkpoint,
    restore_rng_states,
    unpack_state,
)
from .faults import FaultPlan
from .parallel import (
    CRASH_EXIT_CODE,
    WorkerPool,
    chunk_indices,
    shard_rng,
    shard_seed,
)
from .recovery import RecoveryPolicy
from .retry import RetrySchedule, decay

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "CRASH_EXIT_CODE",
    "CheckpointError",
    "CheckpointManager",
    "FaultPlan",
    "ParallelConfig",
    "ParallelError",
    "RecoveryConfig",
    "RecoveryPolicy",
    "RetrySchedule",
    "WorkerPool",
    "atomic_savez",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "capture_rng_states",
    "chunk_indices",
    "collect_rngs",
    "decay",
    "extract_extras",
    "load_checkpoint_source",
    "pack_state",
    "read_checkpoint",
    "restore_rng_states",
    "serialize_npz",
    "shard_rng",
    "shard_seed",
    "unpack_state",
]
