"""Atomic file persistence: write-tmp -> fsync -> ``os.replace``.

Every durable artifact in the repo (weights, datasets, checkpoints,
manifests) goes through these helpers so a killed process can never leave a
truncated or half-written file behind: readers either see the previous
complete version or the new complete one, never a torn intermediate.
:func:`read_npz` is the one ``.npz`` reader, and it fails closed.
"""

from __future__ import annotations

import io
import json
import os
import tokenize
import zipfile
import zlib
from pathlib import Path
from typing import Any, Dict, Type, Union

import numpy as np

from ..errors import CheckpointError, ReproError

PathLike = Union[str, Path]

#: what parsing a damaged ``.npz`` raises: zip and deflate errors, plus
#: SyntaxError/TokenError from numpy's ``.npy`` header parser when bit rot
#: lands inside the header dict literal
_DAMAGED_NPZ = (OSError, ValueError, EOFError, KeyError, IndexError,
                zipfile.BadZipFile, zlib.error, SyntaxError,
                tokenize.TokenError)

#: fixed archive-member timestamp (the ZIP epoch) used by
#: :func:`serialize_npz` so archive bytes depend only on content.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


def _tmp_path(path: Path) -> Path:
    """A same-directory temp name (``os.replace`` must not cross devices)."""
    return path.with_name(f"{path.name}.{os.getpid()}.tmp")


def _fsync_directory(path: Path) -> None:
    """Best-effort fsync of ``path``'s directory so the rename is durable."""
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms that cannot open directories
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically; returns the final path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_path(path)
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass
    _fsync_directory(path)
    return path


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Write ``text`` (UTF-8) to ``path`` atomically."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: PathLike, payload: Any) -> Path:
    """Serialize ``payload`` as indented JSON and write it atomically."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=False)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"payload for {path} is not JSON-serializable: {exc}"
        ) from exc
    return atomic_write_text(path, text + "\n")


def serialize_npz(arrays: Dict[str, np.ndarray],
                  compressed: bool = True) -> bytes:
    """Serialize arrays to ``.npz`` bytes that depend only on content.

    ``np.savez`` stamps each zip member with the current local time, so two
    saves of identical arrays yield different bytes — which would make
    "parallel output is byte-identical to serial" untestable.  This writer
    pins every member's timestamp to the ZIP epoch and forbids pickled
    (object-dtype) members, so equal arrays always produce equal bytes.
    """
    buffer = io.BytesIO()
    method = zipfile.ZIP_DEFLATED if compressed else zipfile.ZIP_STORED
    with zipfile.ZipFile(buffer, "w", method) as archive:
        for name in arrays:
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.compress_type = method
            payload = io.BytesIO()
            np.lib.format.write_array(
                payload, np.asarray(arrays[name]), allow_pickle=False
            )
            archive.writestr(info, payload.getvalue())
    return buffer.getvalue()


def atomic_savez(path: PathLike, arrays: Dict[str, np.ndarray],
                 compressed: bool = True) -> Path:
    """Write an ``.npz`` archive atomically; returns the final path.

    Unlike ``np.savez``, the target name is used exactly as given (no
    implicit ``.npz`` suffix), because the archive is streamed through an
    open temp-file handle before being renamed into place.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_path(path)
    writer = np.savez_compressed if compressed else np.savez
    try:
        with open(tmp, "wb") as handle:
            writer(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write archive {path}: {exc}") from exc
    finally:
        if tmp.exists():
            try:
                tmp.unlink()
            except OSError:
                pass
    _fsync_directory(path)
    return path


def read_npz(path: PathLike, error: Type[ReproError],
             what: str) -> Dict[str, np.ndarray]:
    """Every array of the ``.npz`` archive at ``path``, failing closed.

    A missing file raises ``error("<what> not found: <path>")``; a
    truncated, bit-rotted or non-archive file raises ``error("unreadable
    <what> <path>: <cause>")``, never a raw parser exception.  Pickled
    (object-dtype) members are refused.
    """
    path = Path(path)
    if not path.exists():
        raise error(f"{what} not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            return {key: data[key] for key in data.files}
    except _DAMAGED_NPZ as exc:
        raise error(f"unreadable {what} {path}: {exc}") from exc
