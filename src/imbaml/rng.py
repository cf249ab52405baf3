"""Seeded randomness with a stable child-stream derivation rule, and the
counter-based keys that draw a tree node's candidate columns.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# the side constants of the tree node-key rule (see ``Rng``)
LEFT_KEY = 0x5851F42D4C957F2D
RIGHT_KEY = 0x14057B7EF767814F


def splitmix64(x: int) -> int:
    """One SplitMix64 step; pure 64-bit integer math, platform independent."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` of every element of a uint64 array, bit for bit (uint64
    arithmetic wraps modulo 2**64 as the masks above do)."""
    x = np.asarray(x, dtype=np.uint64) + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class Rng:
    """A named, reproducible random source (PCG64 behind numpy's Generator).

    Equal seeds produce equal streams on every platform. An instance is
    single-owner: code that needs concurrent randomness takes children via
    :meth:`child`, never a shared instance. The derivation rule is

        child_seed = splitmix64(parent_seed XOR splitmix64(child_index + 1))

    so sibling streams do not depend on the parent's draw position.

    Tree nodes do not draw from a stream. Each node has a 64-bit key: a
    root's key is its tree's ``Rng.seed``, and a child's key is

        left_key = splitmix64(parent_key XOR LEFT_KEY)
        right_key = splitmix64(parent_key XOR RIGHT_KEY)

    A node that samples ``m`` of ``d`` columns takes the ``m`` columns ``c``
    with the smallest ``splitmix64(node_key XOR splitmix64(c + 1))``, in
    ascending column order. One node's scores are all distinct (splitmix64
    is a bijection), so no two columns tie; a tie would go to the lower
    column. A node's draw depends only on its tree's seed and its path from
    the root, so any set of nodes can draw at once and in any order
    (counter-based generation: Salmon et al., "Parallel random numbers: as
    easy as 1, 2, 3", SC 2011).
    """

    __slots__ = ("seed", "_gen")

    algorithm = "pcg64"

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    @property
    def np(self) -> np.random.Generator:
        """The underlying numpy Generator (stateful; draws advance it)."""
        return self._gen

    def child(self, index: int) -> "Rng":
        return Rng(splitmix64(self.seed ^ splitmix64((int(index) + 1) & _MASK64)))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed})"
