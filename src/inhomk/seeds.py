"""Deterministic random streams.

A seed is a plain integer. Derived streams are obtained with
``stream(seed, *branch)``: the branch labels go into the ``spawn_key`` of a
:class:`numpy.random.SeedSequence`, which is numpy's stable splitting rule, so
the same ``(seed, branch)`` always yields the same generator regardless of how
many other streams were created before it. String labels are allowed and are
mapped to integers with crc32 so module-level stream names stay readable.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["stream"]


def stream(seed, *branch) -> np.random.Generator:
    """A fresh generator for ``(seed, branch)``. ``seed`` is an integer, never a
    Generator: only ``simulate._rng`` passes an already-derived stream through."""
    key = tuple(zlib.crc32(b.encode("utf-8")) if isinstance(b, str) else int(b) for b in branch)
    ss = np.random.SeedSequence(int(seed), spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))
