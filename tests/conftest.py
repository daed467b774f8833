"""Shared fixtures: deterministic RNGs and session-scoped tiny datasets."""

from __future__ import annotations

import struct
import zipfile

import numpy as np
import pytest

from repro.config import N10, tiny
from repro.data import synthesize_dataset


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_config():
    """The unit-test scale experiment configuration."""
    return tiny(N10, num_clips=12, epochs=2)


@pytest.fixture(scope="session")
def tiny_dataset(tiny_config):
    """A small synthesized dataset shared across the test session.

    Tests must treat it as read-only; anything mutating should copy.
    """
    return synthesize_dataset(tiny_config)


@pytest.fixture
def damage_deflate():
    """Damage the deflate data of an ``.npz``'s first member in place.

    The member's first compressed byte becomes a final block of the
    reserved type, so inflating it raises ``zlib.error`` while the zip
    directory and the CRCs still parse.
    """
    def damage(path):
        with zipfile.ZipFile(path) as archive:
            offset = archive.infolist()[0].header_offset
        with open(path, "r+b") as handle:
            handle.seek(offset + 26)  # local header: name and extra lengths
            name_length, extra_length = struct.unpack("<HH", handle.read(4))
            handle.seek(offset + 30 + name_length + extra_length)
            handle.write(b"\x07")
        return path
    return damage
