"""Versioned, validated training checkpoints with retention.

A checkpoint is a single ``.npz`` archive holding every array needed to
restart training bit-exactly — network ``state_dict`` tensors, optimizer
moments, auxiliary arrays (e.g. Figure 8 snapshots) — plus a JSON metadata
record (``__checkpoint_meta__``) carrying the schema version, epoch, phase,
loss, RNG bit-generator states, and scalar history.  Files are written
atomically (see :mod:`repro.runtime.atomic`) and indexed by a ``manifest.json``
with per-file SHA-256 digests, so a truncated or bit-flipped checkpoint is
detected at load time and fails closed with :class:`CheckpointError` instead
of silently resuming from garbage.

Retention keeps the last ``keep_last`` checkpoints plus, optionally, the
best one by recorded loss.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
import zipfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CheckpointError, ShapeError, TrainingError
from .atomic import atomic_savez, atomic_write_json

#: bump when the checkpoint archive layout changes incompatibly
CHECKPOINT_SCHEMA_VERSION = 1

#: archive member holding the JSON metadata record
META_KEY = "__checkpoint_meta__"

PathLike = Union[str, Path]


# ---------------------------------------------------------------------------
# RNG state capture
# ---------------------------------------------------------------------------


def collect_rngs(*sources: Any) -> List[np.random.Generator]:
    """Gather every RNG a training loop draws from, in a stable order.

    Accepts ``numpy.random.Generator`` instances and network containers
    (anything with a ``layers`` attribute); for networks, every layer-owned
    generator (dropout noise sources) is included.  Duplicate objects are
    fine: saving records the same state twice and restoring applies it
    twice, which is a no-op.
    """
    rngs: List[np.random.Generator] = []
    for source in sources:
        if isinstance(source, np.random.Generator):
            rngs.append(source)
        elif hasattr(source, "layers"):
            for layer in source.layers:
                layer_rng = getattr(layer, "_rng", None)
                if isinstance(layer_rng, np.random.Generator):
                    rngs.append(layer_rng)
        else:
            raise CheckpointError(
                f"cannot collect RNGs from {type(source).__name__}; expected "
                "a numpy Generator or a network with a 'layers' attribute"
            )
    return rngs


def capture_rng_states(rngs: Sequence[np.random.Generator]) -> List[Dict]:
    """Deep-copied ``bit_generator`` states, JSON-serializable."""
    return [copy.deepcopy(rng.bit_generator.state) for rng in rngs]


def restore_rng_states(rngs: Sequence[np.random.Generator],
                       states: Sequence[Dict]) -> None:
    """Restore previously captured states onto the same RNG sources."""
    if len(rngs) != len(states):
        raise CheckpointError(
            f"checkpoint stores {len(states)} RNG states but the model "
            f"exposes {len(rngs)}; was it built with a different config?"
        )
    for rng, state in zip(rngs, states):
        try:
            rng.bit_generator.state = copy.deepcopy(state)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"invalid RNG state in checkpoint: {exc}") from exc


# ---------------------------------------------------------------------------
# Training-state (de)composition
# ---------------------------------------------------------------------------


def pack_state(*, epoch: int, phase: str,
               nets: Optional[Dict[str, Any]] = None,
               optimizers: Optional[Dict[str, Any]] = None,
               rngs: Sequence[np.random.Generator] = (),
               history: Optional[Dict[str, Any]] = None,
               arrays: Optional[Dict[str, np.ndarray]] = None,
               ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Snapshot live training state into ``(payload arrays, metadata)``.

    The returned structures share no storage with the live objects (network
    and optimizer ``state_dict`` copies, JSON-round-tripped metadata), so
    the snapshot stays valid while training continues — which is what makes
    in-memory rollback-to-last-good possible.
    """
    payload: Dict[str, np.ndarray] = {}
    for name, net in (nets or {}).items():
        for key, value in net.state_dict().items():
            payload[f"net/{name}/{key}"] = value
    for name, optimizer in (optimizers or {}).items():
        for key, value in optimizer.state_dict().items():
            payload[f"opt/{name}/{key}"] = np.asarray(value)
    for key, value in (arrays or {}).items():
        payload[f"extra/{key}"] = np.array(value, copy=True)
    meta = {
        "phase": phase,
        "epoch": int(epoch),
        "rng_states": capture_rng_states(rngs),
        "history": history or {},
    }
    try:
        meta = json.loads(json.dumps(meta))  # detach + validate early
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint metadata is not JSON-serializable: {exc}"
        ) from exc
    return payload, meta


def unpack_state(payload: Dict[str, np.ndarray], meta: Dict[str, Any], *,
                 nets: Optional[Dict[str, Any]] = None,
                 optimizers: Optional[Dict[str, Any]] = None,
                 rngs: Optional[Sequence[np.random.Generator]] = None,
                 expect_phase: Optional[str] = None) -> int:
    """Apply a packed snapshot back onto live objects; returns its epoch.

    Shape mismatches, missing keys, and phase mismatches all surface as
    :class:`CheckpointError` naming the offending component.
    """
    if expect_phase is not None and meta.get("phase") != expect_phase:
        raise CheckpointError(
            f"checkpoint belongs to phase {meta.get('phase')!r}, "
            f"expected {expect_phase!r}"
        )
    for name, net in (nets or {}).items():
        prefix = f"net/{name}/"
        state = {
            key[len(prefix):]: value
            for key, value in payload.items() if key.startswith(prefix)
        }
        if not state:
            raise CheckpointError(
                f"checkpoint holds no state for network {name!r}"
            )
        try:
            net.load_state_dict(state)
        except (ShapeError, KeyError) as exc:
            raise CheckpointError(f"network {name!r}: {exc}") from exc
    for name, optimizer in (optimizers or {}).items():
        prefix = f"opt/{name}/"
        state = {
            key[len(prefix):]: value
            for key, value in payload.items() if key.startswith(prefix)
        }
        if not state:
            raise CheckpointError(
                f"checkpoint holds no state for optimizer {name!r}"
            )
        try:
            optimizer.load_state_dict(state)
        except (TrainingError, KeyError) as exc:
            raise CheckpointError(f"optimizer {name!r}: {exc}") from exc
    if rngs is not None:
        restore_rng_states(rngs, meta.get("rng_states", []))
    try:
        return int(meta["epoch"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint metadata has no valid epoch: {exc}") from exc


def extract_extras(payload: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """The auxiliary arrays stored under ``extra/`` keys, prefix stripped."""
    return {
        key[len("extra/"):]: value
        for key, value in payload.items() if key.startswith("extra/")
    }


# ---------------------------------------------------------------------------
# Archive read/write
# ---------------------------------------------------------------------------


def read_checkpoint(path: PathLike) -> Tuple[Dict[str, np.ndarray],
                                             Dict[str, Any]]:
    """Load and validate one checkpoint archive.

    Fails closed with :class:`CheckpointError` (naming the path) on missing
    files, unreadable/truncated archives, absent metadata, and schema
    version mismatches.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            payload = {key: data[key] for key in data.files}
    except (OSError, ValueError, EOFError, KeyError,
            zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"unreadable checkpoint {path}: {exc}"
        ) from exc
    if META_KEY not in payload:
        raise CheckpointError(
            f"{path} is not a checkpoint archive (missing {META_KEY!r})"
        )
    try:
        meta = json.loads(payload.pop(META_KEY).item())
    except (ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"corrupt checkpoint metadata in {path}: {exc}"
        ) from exc
    version = meta.get("schema_version")
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint schema version {version!r}, "
            f"this build reads {CHECKPOINT_SCHEMA_VERSION}"
        )
    return payload, meta


def load_checkpoint_source(source: Any,
                           manager: Optional["CheckpointManager"] = None,
                           ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Resolve a ``resume_from`` value to a loaded checkpoint.

    ``True`` or ``"latest"`` resolve through ``manager``; a directory is
    treated as a checkpoint-manager root; anything else is a direct path to
    one ``.npz`` checkpoint.
    """
    if source is True or source == "latest":
        if manager is None:
            raise CheckpointError(
                "resume_from='latest' requires a checkpoint directory/manager"
            )
        return manager.load()
    path = Path(source)
    if path.is_dir():
        return CheckpointManager(path).load()
    return read_checkpoint(path)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Manager
# ---------------------------------------------------------------------------


class CheckpointManager:
    """Owns one directory of versioned checkpoints plus its manifest.

    ``save`` writes ``<prefix>-<step>.npz`` atomically, records the file's
    SHA-256 in ``manifest.json`` (also written atomically), and prunes to
    the retention set: the last ``keep_last`` steps plus (with
    ``keep_best``) the lowest-loss step.  ``load`` verifies the manifest
    entry and the file digest before parsing, so corruption is reported as
    :class:`CheckpointError` rather than surfacing as a confusing resume.
    """

    MANIFEST_NAME = "manifest.json"

    def __init__(self, directory: PathLike, *, keep_last: int = 3,
                 keep_best: bool = True, prefix: str = "ckpt") -> None:
        if keep_last < 1:
            raise CheckpointError(f"keep_last must be >= 1, got {keep_last}")
        if not prefix:
            raise CheckpointError("checkpoint prefix must be non-empty")
        self.directory = Path(directory)
        self.keep_last = keep_last
        self.keep_best = keep_best
        self.prefix = prefix
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint directory {self.directory}: {exc}"
            ) from exc

    # -- layout --------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / self.MANIFEST_NAME

    def path_for(self, step: int) -> Path:
        return self.directory / f"{self.prefix}-{int(step):06d}.npz"

    def scoped(self, name: str) -> "CheckpointManager":
        """A sub-manager rooted at ``<directory>/<name>`` (per training phase)."""
        return CheckpointManager(
            self.directory / name, keep_last=self.keep_last,
            keep_best=self.keep_best, prefix=self.prefix,
        )

    # -- manifest ------------------------------------------------------------

    def entries(self) -> List[Dict[str, Any]]:
        """Manifest entries sorted by step; ``[]`` when none exist yet."""
        if not self.manifest_path.exists():
            return []
        try:
            manifest = json.loads(self.manifest_path.read_text("utf-8"))
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint manifest {self.manifest_path}: {exc}"
            ) from exc
        entries = manifest.get("checkpoints")
        if not isinstance(entries, list):
            raise CheckpointError(
                f"corrupt checkpoint manifest {self.manifest_path}: "
                "missing 'checkpoints' list"
            )
        return sorted(entries, key=lambda entry: entry.get("step", -1))

    def has_checkpoints(self) -> bool:
        return bool(self.entries())

    def _retained(self, entries: List[Dict[str, Any]]
                  ) -> List[Dict[str, Any]]:
        keep = {entry["step"] for entry in entries[-self.keep_last:]}
        if self.keep_best:
            scored = [e for e in entries if e.get("loss") is not None]
            if scored:
                keep.add(min(scored, key=lambda e: e["loss"])["step"])
        return [entry for entry in entries if entry["step"] in keep]

    # -- write ---------------------------------------------------------------

    def save(self, *, step: int, arrays: Dict[str, np.ndarray],
             meta: Dict[str, Any], loss: Optional[float] = None) -> Path:
        """Persist one checkpoint and apply retention; returns its path."""
        full_meta = {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "step": int(step),
            "loss": None if loss is None else float(loss),
        }
        full_meta.update(meta)
        payload = dict(arrays)
        payload[META_KEY] = np.array(json.dumps(full_meta))
        path = self.path_for(step)
        atomic_savez(path, payload)
        entry = {
            "step": int(step),
            "file": path.name,
            "loss": full_meta["loss"],
            "sha256": _sha256(path),
            "time_unix": time.time(),
        }
        entries = [e for e in self.entries() if e.get("step") != int(step)]
        entries.append(entry)
        entries.sort(key=lambda e: e["step"])
        retained = self._retained(entries)
        kept_files = {e["file"] for e in retained}
        for stale in entries:
            if stale["file"] not in kept_files:
                try:
                    (self.directory / stale["file"]).unlink()
                except OSError:
                    pass
        atomic_write_json(self.manifest_path, {
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "prefix": self.prefix,
            "checkpoints": retained,
        })
        return path

    # -- read ----------------------------------------------------------------

    def _entry_for(self, step: Optional[int]) -> Dict[str, Any]:
        entries = self.entries()
        if not entries:
            raise CheckpointError(
                f"no checkpoints recorded in {self.directory}"
            )
        if step is None:
            return entries[-1]
        for entry in entries:
            if entry.get("step") == step:
                return entry
        raise CheckpointError(
            f"no checkpoint for step {step} in {self.directory} "
            f"(have {[e.get('step') for e in entries]})"
        )

    def latest_step(self) -> int:
        return int(self._entry_for(None)["step"])

    def latest_path(self) -> Path:
        return self.directory / self._entry_for(None)["file"]

    def load(self, step: Optional[int] = None
             ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        """Load the latest (or a specific-step) checkpoint, fully validated.

        Validation covers the manifest entry (file present, step matches),
        the file digest against the manifest SHA-256, and the archive/schema
        checks of :func:`read_checkpoint`.
        """
        entry = self._entry_for(step)
        path = self.directory / entry["file"]
        if not path.exists():
            raise CheckpointError(
                f"manifest {self.manifest_path} lists missing file {path}"
            )
        recorded = entry.get("sha256")
        if recorded and _sha256(path) != recorded:
            raise CheckpointError(
                f"checkpoint {path} fails its manifest checksum "
                "(file is corrupt or was modified)"
            )
        payload, meta = read_checkpoint(path)
        if meta.get("step") != entry.get("step"):
            raise CheckpointError(
                f"checkpoint {path} records step {meta.get('step')} but the "
                f"manifest expects {entry.get('step')}"
            )
        return payload, meta
