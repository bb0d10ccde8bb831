"""Representation, parsing, and evaluation of XOR-of-monomial functions."""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infplace.anf import (
    MAX_TRUTH_TABLE_DATASETS,
    BooleanFunctionANF,
    ParseError,
    _block_states,
    bits_from_assignment,
    evaluate,
    function_to_json,
    indices_from_mask,
    mask_from_indices,
    parse_function,
    sample_blocks,
    truth_table,
)

from conftest import evaluate_batch, numpys_bounded_draws


def reference_evaluate(index_lists, k, w):
    """Bit-by-bit evaluator, independent of the bitmask implementation."""
    bits = [(w >> i) & 1 for i in range(k)]
    out = 0
    for mono in index_lists:
        term = 1
        for idx in mono:
            term &= bits[idx - 1]
        out ^= term
    return out


@st.composite
def functions(draw, max_k=8, max_monomials=4):
    k = draw(st.integers(1, max_k))
    masks = draw(st.lists(st.integers(0, (1 << k) - 1), max_size=max_monomials))
    return BooleanFunctionANF.from_masks(k, masks)


def test_mask_round_trip():
    assert mask_from_indices([1, 4, 7]) == 0b1001001
    assert indices_from_mask(0b1001001) == (1, 4, 7)
    assert mask_from_indices([]) == 0
    assert indices_from_mask(0) == ()


@given(st.sets(st.integers(1, 64)))
def test_mask_indices_inverse(indices):
    ordered = tuple(sorted(indices))
    assert indices_from_mask(mask_from_indices(ordered)) == ordered


@pytest.mark.parametrize(
    "bad",
    [[0], [-2], [1, 1], [65], ["3"], [True]],
)
def test_mask_rejects_bad_indices(bad):
    with pytest.raises(ParseError):
        mask_from_indices(bad)


def test_mask_respects_dataset_bound():
    with pytest.raises(ParseError):
        mask_from_indices([5], num_datasets=4)


def test_canonical_order_degree_then_lex():
    f = BooleanFunctionANF.from_indices(9, [[2, 5, 7, 8], [3, 6, 9], [1, 4, 7]])
    assert [list(indices_from_mask(m)) for m in f.monomials] == [
        [1, 4, 7],
        [3, 6, 9],
        [2, 5, 7, 8],
    ]
    assert str(f) == "W1W4W7 + W3W6W9 + W2W5W7W8"


def test_xor_cancellation():
    # A monomial appearing twice vanishes; three times leaves one copy.
    f = BooleanFunctionANF.from_indices(4, [[1, 2], [1, 2]])
    assert f.monomials == ()
    assert str(f) == "0"
    g = BooleanFunctionANF.from_indices(4, [[1, 2], [1, 2], [1, 2], [3]])
    assert [list(indices_from_mask(m)) for m in g.monomials] == [[3], [1, 2]]


def test_constant_term_handling():
    f = BooleanFunctionANF.from_indices(3, [[], [1, 2]])
    assert f.constant_term == 1
    assert f.non_constant_monomials == (0b011,)
    assert str(f) == "1 + W1W2"
    assert evaluate(f, 0) == 1
    assert evaluate(f, 0b011) == 0


def test_direct_construction_requires_canonical_order():
    with pytest.raises(ValueError):
        BooleanFunctionANF(4, (0b0110, 0b0001))  # degree 2 before degree 1
    with pytest.raises(ValueError):
        BooleanFunctionANF(4, (0b0011, 0b0011))  # duplicate


@given(functions())
def test_parse_serialize_round_trip(f):
    assert parse_function(function_to_json(f)) == f


def test_serialization_is_canonical_json():
    f = BooleanFunctionANF.from_indices(3, [[2], [1, 3]])
    assert function_to_json(f) == '{"K":3,"monomials":[[2],[1,3]]}\n'


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"K": 3}',
        '{"monomials": []}',
        '{"K": 0, "monomials": []}',
        '{"K": true, "monomials": []}',
        '{"K": 3, "monomials": [3]}',
        '{"K": 3, "monomials": [[4]]}',
        '{"K": 3, "monomials": [[1, 1]]}',
        '{"K": 65, "monomials": []}',
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse_function(text)


@given(functions())
@settings(max_examples=60)
def test_evaluate_matches_reference(f):
    index_lists = [indices_from_mask(m) for m in f.monomials]
    for w in range(1 << f.num_datasets):
        assert evaluate(f, w) == reference_evaluate(index_lists, f.num_datasets, w)


@given(functions())
def test_evaluate_batch_and_truth_table_agree(f):
    k = f.num_datasets
    tt = truth_table(f)
    assert tt.shape == (1 << k,)
    batch = evaluate_batch(f, np.arange(1 << k, dtype=np.uint32))
    assert np.array_equal(tt, batch)
    for w in (0, (1 << k) - 1, 1 % (1 << k)):
        assert int(tt[w]) == evaluate(f, w)


def test_truth_table_matches_evaluate_batch_up_to_k16():
    rng = random.Random(16)
    for k in range(1, 17):
        idx = np.arange(1 << k, dtype=np.uint32)
        random_masks = [rng.randrange(1 << k) for _ in range(rng.randint(1, 8))]
        for masks in ([], [0], random_masks, random_masks + [0, (1 << k) - 1]):
            f = BooleanFunctionANF.from_masks(k, masks)
            tt = truth_table(f)
            assert tt.shape == (1 << k,) and tt.dtype == bool
            assert np.array_equal(tt, evaluate_batch(f, idx)), f


def test_truth_table_results_are_independent(example_function):
    # Writing into one result must not change a later answer.
    first = truth_table(example_function)
    expected = first.copy()
    first[:] = ~first
    assert np.array_equal(truth_table(example_function), expected)


def test_truth_table_cap():
    f = BooleanFunctionANF.from_indices(30, [[1, 2]])
    with pytest.raises(ValueError):
        truth_table(f)


def test_truth_table_cap_fits_numpy_dimension_limit():
    # Tables are built on a (2,)*K view; numpy 1.x allows 32 dimensions.
    assert MAX_TRUTH_TABLE_DATASETS <= 32


def test_evaluate_rejects_out_of_range_assignment():
    f = BooleanFunctionANF.from_indices(3, [[1]])
    with pytest.raises(ValueError):
        evaluate(f, 1 << 3)
    with pytest.raises(ValueError):
        evaluate(f, -1)


def test_assignment_bits_first_dataset_first():
    assert bits_from_assignment(0b0000101, 7) == "1010000"
    assert bits_from_assignment(0b1011, 4) == "1101"


def test_support_mask(example_function):
    assert example_function.support_mask == (1 << 9) - 1
    f = BooleanFunctionANF.from_indices(6, [[2, 4]])
    assert indices_from_mask(f.support_mask) == (2, 4)
    # Kept after the first read, but read-only and outside equality and hashing.
    g = BooleanFunctionANF.from_indices(6, [[2, 4]])
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    with pytest.raises(AttributeError):
        f.support_mask = 0
    assert f.support_mask == 0b1010


def test_function_json_digest_stability(example_function):
    # Two equal functions built along different routes serialize identically.
    other = parse_function(
        json.dumps({"K": 9, "monomials": [[3, 6, 9], [2, 5, 7, 8], [1, 4, 7]]})
    )
    assert function_to_json(other) == function_to_json(example_function)


def test_block_states_are_numpys_seeding():
    # Seeds of one to seven 32-bit words, the edges of a word among them:
    # block b's PCG64 state is the one numpy sets from (seed, spawn key (b,)).
    rng = random.Random(33)
    seeds = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3, 2**200 + 7]
    seeds += [rng.getrandbits(32 * rng.randint(1, 7)) for _ in range(205)]
    for seed in seeds:
        states = _block_states(seed, 130)
        assert len(states) == 130
        for b, (state, inc) in enumerate(states):
            bits = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))
            assert bits.state["state"] == {"state": state, "inc": inc}, (seed, b)
    assert _block_states(5, 0) == []


def test_sample_blocks_are_numpys_bounded_draws():
    # The sampler reads raw PCG64 words from one bit generator; shifted
    # down, block b must be rng.integers' draws on the stream of spawn key
    # (b,), element for element at every K, with every size in one call.
    sizes = (0, 1, 2, 3, 7, 5000, 8191, 8192)
    for k in range(1, 65):
        seed = 1000 * k
        blocks = list(sample_blocks(k, sizes, seed))
        assert len(blocks) == len(sizes)
        for b, (size, (words, shift)) in enumerate(zip(sizes, blocks)):
            assert words.dtype == (np.uint32 if k <= 32 else np.uint64)
            want = numpys_bounded_draws(k, size, seed, (b,))
            assert np.array_equal(words >> shift, want), (k, size, b)
