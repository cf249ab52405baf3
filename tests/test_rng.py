import numpy as np

from imbaml import Rng
from imbaml.rng import LEFT_KEY, RIGHT_KEY, splitmix64, splitmix64_array


def test_equal_seeds_give_equal_streams():
    a = Rng(123456789).np.random(10_000)
    b = Rng(123456789).np.random(10_000)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).np.random(100), Rng(2).np.random(100))


def test_children_are_stable_and_independent_of_draws():
    parent = Rng(42)
    first = parent.child(3).seed
    parent.np.random(100)  # advancing the parent must not move child seeds
    assert parent.child(3).seed == first
    assert parent.child(2).seed != first


def test_sibling_streams_do_not_collide():
    parent = Rng(7)
    seeds = {parent.child(i).seed for i in range(1000)}
    assert len(seeds) == 1000


def test_vectorised_splitmix64_equals_scalar():
    edges = [0, 1, 2, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, 0x9E3779B97F4A7C15 - 1,
             LEFT_KEY, RIGHT_KEY]
    xs = edges + Rng(9).np.integers(0, 2**64 - 1, size=200, dtype=np.uint64,
                                    endpoint=True).tolist()
    got = splitmix64_array(np.array(xs, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [splitmix64(x) for x in xs]
    # a 2-d input maps element by element
    grid = np.array(edges[:4], dtype=np.uint64).reshape(2, 2)
    assert splitmix64_array(grid).tolist() == [[splitmix64(x) for x in row]
                                               for row in grid.tolist()]
