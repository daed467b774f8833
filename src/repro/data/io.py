"""Dataset persistence as compressed ``.npz`` archives with integrity
manifests.

Writes are atomic (temp file + fsync + ``os.replace``) so a killed process
never leaves a truncated archive, and every save emits a per-record
``<name>.manifest.json`` integrity sidecar (see :mod:`repro.data.integrity`).
Reads fail closed: any unreadable, truncated, or key-incomplete archive
raises :class:`~repro.errors.DataError` naming the offending path instead of
leaking a raw ``KeyError``/``ValueError``.  Load-time *policies* extend the
fail-closed posture to individual records: ``strict`` refuses a dataset with
any invalid record, ``salvage`` quarantines the bad records and returns the
verified remainder.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from ..config import (
    DATA_POLICY_NONE,
    DATA_POLICY_SALVAGE,
    DATA_POLICY_STRICT,
    ExperimentConfig,
)
from ..errors import ConfigError, DataError
from ..runtime.atomic import atomic_write_bytes, read_npz, serialize_npz
from .dataset import PairedDataset

_REQUIRED_KEYS = ("masks", "resists", "centers", "array_types")


def save_dataset(dataset: PairedDataset, path: Union[str, Path],
                 manifest: bool = True) -> Path:
    """Write a dataset to ``path`` (a ``.npz`` suffix is added if missing).

    Both writes are atomic, and the archive's bytes are *deterministic*
    (fixed zip-member timestamps via
    :func:`~repro.runtime.atomic.serialize_npz`), so equal datasets always
    produce byte-identical files — the property the ``--workers N``
    equivalence guarantee is tested against.

    Unless ``manifest=False``, a ``<name>.manifest.json`` integrity sidecar
    with per-record content hashes (and synthesis provenance, when the
    dataset carries it) is written **before** the archive.  That ordering
    makes the pair crash-consistent: a kill between the two writes leaves a
    manifest without its archive (loading reports a missing dataset file)
    or, when overwriting, a fresh manifest beside the previous archive —
    whose stale records then fail their hash checks under ``strict``/
    ``salvage`` policies.  No crash point can leave an archive that is
    silently mistaken for a manifest-less legacy dataset.
    """
    from .integrity import build_manifest, manifest_path_for

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    if manifest:
        build_manifest(dataset).save(manifest_path_for(path))
    atomic_write_bytes(path, serialize_npz({
        "masks": dataset.masks,
        "resists": dataset.resists,
        "centers": dataset.centers,
        "array_types": dataset.array_types.astype(str),
        "tech_name": np.array(dataset.tech_name),
    }))
    return path


def _read_archive(path: Path) -> PairedDataset:
    arrays = read_npz(path, DataError, "dataset archive")
    missing = [key for key in _REQUIRED_KEYS if key not in arrays]
    if missing:
        raise DataError(f"{path} is not a dataset archive (missing {missing})")
    return PairedDataset(
        arrays["masks"],
        arrays["resists"],
        arrays["centers"],
        arrays["array_types"],
        tech_name=str(arrays.get("tech_name", "")),
    )


def load_dataset(path: Union[str, Path],
                 policy: str = DATA_POLICY_NONE,
                 config: Optional[ExperimentConfig] = None):
    """Load a dataset previously written by :func:`save_dataset`.

    Raises :class:`DataError` (naming the path, and the missing keys where
    applicable) for absent files, non-dataset archives, and corrupt or
    truncated files.

    ``policy`` selects the per-record integrity posture (see
    :mod:`repro.data.integrity`); ``strict`` and ``salvage`` require a
    ``config`` to derive the golden-geometry bounds from:

    ``"none"`` (default)
        Archive-level checks only; returns the :class:`PairedDataset`.
    ``"strict"``
        Validate every record against the manifest sidecar and the golden
        invariants; raise :class:`~repro.errors.DataIntegrityError` naming
        the bad indices and reasons if anything is quarantined.  Returns
        the :class:`PairedDataset`.
    ``"salvage"``
        Validate, then return a ``(dataset, report)`` tuple: the verified
        subset plus the typed
        :class:`~repro.data.integrity.QuarantineReport`.

    A legacy archive without a manifest still loads under either policy:
    validation degrades to structural + geometry checks (no hash check) and
    the report's ``manifest_missing`` flag is set so callers can warn.
    """
    from .integrity import DatasetValidator, load_manifest, strict_check

    path = Path(path)
    dataset = _read_archive(path)
    if policy == DATA_POLICY_NONE:
        return dataset
    if policy not in (DATA_POLICY_STRICT, DATA_POLICY_SALVAGE):
        raise ConfigError(
            f"load_dataset policy must be 'none', 'strict', or 'salvage', "
            f"got {policy!r}"
        )
    if config is None:
        raise ConfigError(
            f"load_dataset(policy={policy!r}) requires an ExperimentConfig "
            "to derive validation bounds from"
        )
    manifest = load_manifest(path)
    report = DatasetValidator(config).validate(dataset, manifest)
    if policy == DATA_POLICY_STRICT:
        strict_check(report, source=str(path))
        return dataset
    if report.ok:
        return dataset, report
    return dataset.subset(np.array(report.clean_indices, dtype=int)), report
