"""A golden-playback stand-in model for serving drills and benchmarks.

Soak tests and serving drills need a model whose *un-faulted* outputs always
pass the output guard — otherwise a shed/fallback count mixes injected
faults with the natural misses of a cheaply trained network and nothing
can be asserted exactly.  :class:`PlaybackModel` answers ``predict_raw``
with the dataset's own recentered golden resist windows and golden
centers: every clip the dataset contains is served perfectly, so the only
degenerate outputs in a drill are the ones a
:class:`~repro.runtime.faults.FaultPlan` deliberately poisoned.

Lookup is by exact mask bytes (the common case — drills submit dataset
masks verbatim) with a nearest-neighbour L1 fallback for sanitized or
slightly perturbed masks, so admission-layer clipping cannot break the
pairing.  The fallback is shape-strict: a request whose mask resolution
differs from the playback records raises a typed
:class:`~repro.errors.ShapeError` naming both shapes — silently
broadcasting would pair the request with a meaningless record and turn a
mis-published registry version into quietly wrong answers.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..errors import ShapeError


class PlaybackModel:
    """Duck-typed ``predict_raw`` stand-in backed by a paired dataset."""

    def __init__(self, dataset):
        self.dataset = dataset
        recentered = dataset.recentered_resists()
        self._mono = (
            recentered[:, 0] if recentered.ndim == 4 else recentered
        ).astype(np.float32)
        self._centers = np.asarray(dataset.centers, dtype=np.float64)
        self._masks = np.asarray(dataset.masks, dtype=np.float32)
        self._by_bytes: Dict[bytes, int] = {
            self._masks[row].tobytes(): row
            for row in range(len(self._masks))
        }

    def _index_of(self, mask: np.ndarray) -> int:
        mask = np.asarray(mask, dtype=np.float32)
        if mask.shape != self._masks.shape[1:]:
            raise ShapeError(
                f"playback records hold masks of shape "
                f"{self._masks.shape[1:]}, request mask has shape "
                f"{mask.shape}; refusing to broadcast a mismatched lookup"
            )
        key = np.ascontiguousarray(mask).tobytes()
        row = self._by_bytes.get(key)
        if row is not None:
            return row
        diffs = np.abs(
            self._masks - mask
        ).reshape(len(self._masks), -1).sum(axis=1)
        return int(np.argmin(diffs))

    def predict_raw(self, masks) -> Tuple[np.ndarray, np.ndarray]:
        rows = [self._index_of(mask) for mask in np.asarray(masks)]
        return self._mono[rows], self._centers[rows]
