import numpy as np
import pytest

from infplace.anf import BooleanFunctionANF
from infplace.placement import PlacementConfig

# The K=9 three-monomial function used across the suites, with the two
# hand-checked placements: consecutive index windows and an overlapping
# variant whose optimal scheme needs only four pieces.
EXAMPLE_FUNCTION_JSON = '{"K":9,"monomials":[[1,4,7],[2,5,7,8],[3,6,9]]}\n'
WINDOW_PLACEMENT_JSON = (
    '{"N":3,"M":6,"subsets":[[1,2,3,4,5,6],[4,5,6,7,8,9],[1,2,3,7,8,9]]}\n'
)
OVERLAP_PLACEMENT_JSON = (
    '{"N":3,"M":6,"subsets":[[1,2,4,5,6,7],[3,4,5,6,8,9],[1,2,3,7,8,9]]}\n'
)
DISJOINT_PAIRS_JSON = '{"K":6,"monomials":[[1,2],[3,4],[5,6]]}\n'


def evaluate_batch(f, assignments):
    """``anf.evaluate`` over an unsigned integer array of masks, in numpy."""
    out = np.zeros(assignments.shape, dtype=bool)
    for m in f.monomials:
        mm = assignments.dtype.type(m)
        out ^= (assignments & mm) == mm
    return out


def numpys_bounded_draws(k, size, seed, spawn_key):
    """Generator.integers on the (seed, spawn_key) PCG64 stream; for K = 64
    a high and then a low 32-bit draw."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))
    )
    if k <= 63:
        return rng.integers(0, 1 << k, size=size, dtype=np.uint64)
    hi = rng.integers(0, 1 << 32, size=size, dtype=np.uint64)
    lo = rng.integers(0, 1 << 32, size=size, dtype=np.uint64)
    return (hi << np.uint64(32)) | lo


@pytest.fixture
def example_function() -> BooleanFunctionANF:
    return BooleanFunctionANF.from_indices(9, [[1, 4, 7], [2, 5, 7, 8], [3, 6, 9]])


@pytest.fixture
def window_placement() -> PlacementConfig:
    return PlacementConfig.from_indices(
        6, [[1, 2, 3, 4, 5, 6], [4, 5, 6, 7, 8, 9], [1, 2, 3, 7, 8, 9]]
    )


@pytest.fixture
def overlap_placement() -> PlacementConfig:
    return PlacementConfig.from_indices(
        6, [[1, 2, 4, 5, 6, 7], [3, 4, 5, 6, 8, 9], [1, 2, 3, 7, 8, 9]]
    )


@pytest.fixture
def disjoint_pairs() -> BooleanFunctionANF:
    return BooleanFunctionANF.from_indices(6, [[1, 2], [3, 4], [5, 6]])
