"""Deterministic derivation of independent random substreams.

Each block of atoms gets its own generator, derived from the master seed and
an integer index path: ``(experiment, state, block)`` for a block of
histogram trials, ``(experiment, block, cycle)`` for one cycle of a block of
survival or Rabi rows. Blocks have a fixed size, so results are identical no
matter how the blocks are ordered or spread over processes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

BLOCK = 4096   # atoms per substream; fixed, so that no result depends on the worker count

GENERATOR_NAME = (
    "numpy.random.PCG64 seeded via SeedSequence(master_seed, spawn_key=path), "
    f"one path per block of {BLOCK} atoms"
)


def derive_substream(master_seed: int, indices: Sequence[int]) -> np.random.Generator:
    """Independent generator for one (seed, index-path) pair."""
    if master_seed < 0 or master_seed >= 2**64:
        raise ValueError("master_seed must be an unsigned 64-bit integer")
    seq = np.random.SeedSequence(
        entropy=int(master_seed), spawn_key=tuple(int(i) for i in indices)
    )
    return np.random.Generator(np.random.PCG64(seq))
