"""Transmission schemes: synthesis, counting, decoding, verification."""

import functools
import hashlib
import itertools
import operator
import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infplace.anf
import infplace.transmission
from infplace.anf import (
    BooleanFunctionANF,
    evaluate,
    indices_from_mask,
    mask_from_indices,
    truth_table,
)
from infplace.placement import PlacementConfig
from infplace.transmission import (
    Piece,
    SynthesisLimitError,
    TransmissionScheme,
    UncomputablePlacementError,
    VerifyResult,
    _blocks_with_lowest,
    _clique,
    _new_blocks_bound,
    _rank2,
    _scheme_from_blocks,
    _vars_key,
    count_transmissions,
    decode,
    parse_scheme,
    scheme_structure_errors,
    scheme_to_json,
    synthesize_exact,
    synthesize_greedy,
    verify_scheme,
)

from test_acceptance import covering_placement, random_function

OVERLAP_SCHEME_JSON = (
    '{"constant":0,"pieces":[{"server":1,"vars":[1,4,7]},{"server":1,"vars":[2,5,7]},'
    '{"server":2,"vars":[3,6,9]},{"server":2,"vars":[8]}],"plan":[[0],[2],[1,3]]}\n'
)


def test_window_placement_needs_six_pieces(example_function, window_placement):
    scheme = synthesize_exact(example_function, window_placement)
    counts = count_transmissions(scheme, num_servers=3)
    assert counts.total == 6
    assert counts.per_server == (3, 3, 0)
    assert verify_scheme(scheme, example_function).passed
    assert scheme_structure_errors(scheme, example_function) == []


def test_overlap_placement_needs_four_pieces(example_function, overlap_placement):
    scheme = synthesize_exact(example_function, overlap_placement)
    counts = count_transmissions(scheme, num_servers=3)
    assert counts.total == 4
    assert counts.per_server == (2, 2, 0)
    assert verify_scheme(scheme, example_function).passed
    # frozen canonical serialization: two three-way products from server 1,
    # one from server 2, and the single leftover dataset 8
    assert scheme_to_json(scheme) == OVERLAP_SCHEME_JSON


def test_greedy_matches_exact_on_example(example_function, window_placement):
    exact = synthesize_exact(example_function, window_placement)
    greedy = synthesize_greedy(example_function, window_placement)
    assert count_transmissions(greedy).total == count_transmissions(exact).total == 6
    assert verify_scheme(greedy, example_function).passed


def test_exact_beats_greedy_on_reuse_fixture():
    # Greedy grabs the locally largest block {1,2,3} for the degree-4
    # monomial; the optimum reuses {1,2} and adds {3,4}.
    f = BooleanFunctionANF.from_indices(4, [[1, 2], [1, 4], [1, 2, 3, 4]])
    p = PlacementConfig.from_indices(3, [[1, 2, 3], [1, 3, 4], [1, 2, 3]])
    t_exact = count_transmissions(synthesize_exact(f, p)).total
    t_greedy = count_transmissions(synthesize_greedy(f, p)).total
    assert (t_exact, t_greedy) == (3, 4)
    assert verify_scheme(synthesize_exact(f, p), f).passed
    assert verify_scheme(synthesize_greedy(f, p), f).passed


def test_piece_reuse_across_monomials():
    f = BooleanFunctionANF.from_indices(4, [[1, 2], [1, 2, 3]])
    p = PlacementConfig.from_indices(2, [[1, 2], [3, 4]])
    scheme = synthesize_exact(f, p)
    # {1,2} serves both monomials; only {3} is extra.
    assert count_transmissions(scheme).total == 2
    assert verify_scheme(scheme, f).passed


def test_constant_function_needs_no_pieces():
    f = BooleanFunctionANF.from_indices(3, [[]])
    p = PlacementConfig.from_indices(2, [[1, 2], [2, 3]])
    scheme = synthesize_exact(f, p)
    assert scheme.pieces == () and scheme.plan == () and scheme.constant == 1
    assert count_transmissions(scheme, num_servers=2).total == 0
    assert decode(scheme, f, 0b101) == 1
    assert verify_scheme(scheme, f).passed


def test_uncomputable_placement_names_the_missing_datasets(disjoint_pairs):
    degree17 = BooleanFunctionANF.from_indices(19, [range(1, 18), [18, 19]])
    cases = [
        # (function, placement, first uncoverable monomial, datasets no server holds)
        (disjoint_pairs, [[1, 2], [3, 4]], (5, 6), (5, 6)),
        # A monomial held in part names only the part no server holds.
        (disjoint_pairs, [[1, 2], [3, 4], [5, 1]], (5, 6), (6,)),
        # Coverage is decided ahead of the exact-synthesis degree limit.
        (degree17, [range(1, 18), [1, 18]], (18, 19), (19,)),
    ]
    for (f, subsets, monomial, missing), synthesize in itertools.product(
        cases, [synthesize_exact, synthesize_greedy]
    ):
        p = PlacementConfig.from_indices(17, subsets)
        with pytest.raises(UncomputablePlacementError) as err:
            synthesize(f, p)
        assert err.value.monomial_indices == monomial
        assert err.value.missing == missing


def test_exact_synthesis_degree_limit():
    # Degree 16 is the largest exact synthesis accepts.
    p = PlacementConfig.from_indices(17, [range(1, 18)])
    f = BooleanFunctionANF.from_indices(17, [range(1, 18)])
    with pytest.raises(SynthesisLimitError, match="degree 17 exceeds"):
        synthesize_exact(f, p)
    g = BooleanFunctionANF.from_indices(17, [range(1, 17)])
    assert count_transmissions(synthesize_exact(g, p)).total == 1


def test_lowest_covering_server_wins():
    f = BooleanFunctionANF.from_indices(3, [[1, 2]])
    p = PlacementConfig.from_indices(2, [[2, 3], [1, 2]])
    scheme = synthesize_exact(f, p)
    # {1,2} fits only on server 2; a lone {2} would go to server 1.
    assert scheme.pieces == (Piece(server=2, vars_mask=0b011),)


def test_piece_is_an_immutable_tuple(example_function, overlap_placement):
    piece = Piece(server=2, vars_mask=0b1001)
    assert piece == (2, 0b1001) and hash(piece) == hash((2, 0b1001))
    assert (piece.server, piece.vars_mask) == (2, 0b1001)
    assert piece.sort_key() == (2, "0110")  # vars {1,4}: present, absent, absent, present
    with pytest.raises(AttributeError):
        piece.server = 1
    with pytest.raises(AttributeError):
        piece.vars_mask = 0b1
    # A synthesized scheme's pieces equal plain tuples, and its JSON is pinned.
    scheme = synthesize_exact(example_function, overlap_placement)
    assert scheme.pieces == (
        (1, 0b001001001), (1, 0b001010010), (2, 0b100100100), (2, 0b010000000)
    )
    assert scheme_to_json(scheme) == OVERLAP_SCHEME_JSON


def test_decode_by_hand(example_function, overlap_placement):
    scheme = synthesize_exact(example_function, overlap_placement)
    for w in (0, 0b111111111, 0b001001001, 0b100110010):
        assert decode(scheme, example_function, w) == evaluate(example_function, w)


def test_count_transmissions_server_extension():
    scheme = TransmissionScheme(
        pieces=(Piece(1, 0b01), Piece(1, 0b10)), plan=((0,), (1,)), constant=0
    )
    assert count_transmissions(scheme).per_server == (2,)
    assert count_transmissions(scheme, num_servers=3).per_server == (2, 0, 0)
    with pytest.raises(ValueError):
        count_transmissions(scheme, num_servers=0)


def test_scheme_round_trip(example_function, window_placement):
    scheme = synthesize_exact(example_function, window_placement)
    text = scheme_to_json(scheme)
    assert scheme_to_json(parse_scheme(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        '{"pieces": [], "plan": [[0]], "constant": 0}',  # dangling reference
        '{"pieces": [{"server": 0, "vars": [1]}], "plan": [], "constant": 0}',
        '{"pieces": [{"server": 1, "vars": []}], "plan": [], "constant": 0}',
        '{"pieces": [{"server": 1, "vars": [1]}], "plan": [], "constant": 2}',
        '{"pieces": [{"server": 1}], "plan": [], "constant": 0}',
        '{"pieces": [{"server": 1, "vars": [1]}], "plan": [[true]], "constant": 0}',
        '{"pieces": [{"server": 1, "vars": [1]}], "plan": [["0"]], "constant": 0}',
        '{"pieces": [{"server": "1", "vars": [1]}], "plan": [[0]], "constant": 0}',
        '{"pieces": [{"server": true, "vars": [1]}], "plan": [[0]], "constant": 0}',
    ],
)
def test_parse_scheme_rejects_malformed_input(text):
    with pytest.raises(Exception) as err:
        parse_scheme(text)
    assert err.type.__name__ in ("ParseError", "ValueError")


def test_structure_errors_catch_tampering(example_function, overlap_placement):
    scheme = synthesize_exact(example_function, overlap_placement)
    tampered = TransmissionScheme(
        pieces=scheme.pieces[:-1] + (Piece(2, 0b100000000),),  # {8} -> {9}
        plan=scheme.plan,
        constant=scheme.constant,
    )
    problems = scheme_structure_errors(tampered, example_function)
    assert any("cover" in p for p in problems)
    result = verify_scheme(tampered, example_function)
    assert not result.passed
    assert result.mode == "exhaustive"
    w = result.counterexample
    assert decode(tampered, example_function, w) != evaluate(example_function, w)
    assert len(result.counterexample_bits(9)) == 9


def test_verify_is_exhaustive_for_large_k():
    f = BooleanFunctionANF.from_indices(22, [[1, 2, 3], [10, 20]])
    p = PlacementConfig.from_indices(11, [list(range(1, 12)), list(range(12, 23))])
    scheme = synthesize_greedy(f, p)
    result = verify_scheme(scheme, f)
    assert result == VerifyResult(True, 1 << 22, None)
    assert result.mode == "exhaustive"


def test_verify_counterexample_at_k64_is_pinned():
    # Decoding W1W63 for W1W64 fails first where W1 and W63 are set and
    # W64 is not: the lesser of the two monomials, read as an input.
    f = BooleanFunctionANF.from_indices(64, [[1, 64]])
    wrong = TransmissionScheme((Piece(1, 1), Piece(1, 1 << 62)), ((0, 1),))
    result = verify_scheme(wrong, f)
    assert not result.passed and result.mode == "exhaustive"
    assert result.counterexample == 0x4000000000000001
    assert result.counterexample_bits(64) == "1" + "0" * 61 + "10"


def test_verify_fails_a_scheme_that_differs_on_few_inputs():
    # Decoding W1...W23W25 for W1...W24 differs on 2^-24 of the inputs.
    # The lowest of them sets exactly W1...W24.
    f = BooleanFunctionANF.from_indices(30, [range(1, 25)])
    wrong = TransmissionScheme(
        (Piece(1, mask_from_indices(range(1, 24))), Piece(1, 1 << 24)), ((0, 1),)
    )
    result = verify_scheme(wrong, f)
    assert result == VerifyResult(False, 1 << 30, (1 << 24) - 1)
    w = result.counterexample
    assert decode(wrong, f, w) != evaluate(f, w)


def test_decode_refuses_what_verify_and_evaluate_refuse():
    f = BooleanFunctionANF.from_indices(3, [[1, 2]])
    scheme = TransmissionScheme((Piece(1, 0b11),), ((0,),))
    assert decode(scheme, f, 0b011) == 1
    for assignment in (-1, 0b11 | 1 << 40):
        with pytest.raises(ValueError, match="does not fit 3 datasets"):
            evaluate(f, assignment)
        with pytest.raises(ValueError, match="does not fit 3 datasets"):
            decode(scheme, f, assignment)
    past = TransmissionScheme((Piece(1, 0b11), Piece(1, 1 << 8)), ((0,),))
    with pytest.raises(ValueError, match="past K=3"):
        decode(past, f, 0b011)


def reference_verify(s, f):
    """What exhaustive ``verify_scheme`` must report, from f's numpy truth
    table and the decoder's product of pieces per plan row on every input."""
    k = f.num_datasets
    x = np.arange(1 << k, dtype=np.uint32)
    got = np.full(1 << k, bool(s.constant))
    for refs in s.plan:
        term = np.ones(1 << k, dtype=bool)
        for r in refs:
            m = np.uint32(s.pieces[r].vars_mask)
            term &= (x & m) == m
        got ^= term
    bad = np.nonzero(truth_table(f) != got)[0]
    counter = int(bad[0]) if bad.size else None
    return VerifyResult(counter is None, 1 << k, counter)


def lowest_failing_input(s, f):
    """The lowest input where f and the decoder differ, or None, found bit
    by bit from the highest: a bit stays 0 when the ANF of f XOR the
    decoder, restricted to that value, is not empty (ANF is unique, so the
    restriction is then 1 somewhere)."""
    rows = [0] * s.constant
    for refs in s.plan:
        rows.append(functools.reduce(operator.or_, (s.pieces[r].vars_mask for r in refs), 0))
    g = {m for m, n in Counter([*f.monomials, *rows]).items() if n % 2}
    if not g:
        return None
    x = 0
    for i in reversed(range(f.num_datasets)):
        bit = 1 << i
        low = {m for m in g if not m & bit}
        if low:
            g = low
        else:
            # Every monomial holds the bit: setting it drops the bit, and
            # the masks stay distinct.
            x |= bit
            g = {m ^ bit for m in g}
    return x


def wide_instance(rng, k):
    """A function of 1-4 monomials of degree 1-6 over K datasets, its greedy
    scheme on a covering placement, the scheme's tampered copies and a
    scheme of random pieces."""
    degrees = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
    f = BooleanFunctionANF.from_masks(
        k, [mask_from_indices(rng.sample(range(1, k + 1), d)) for d in degrees]
    )
    scheme = synthesize_greedy(f, covering_placement(rng, f, rng.randint(1, 4)))
    pieces = tuple({Piece(1, rng.randrange(1, 1 << k)) for _ in range(4)})
    plan = tuple(tuple(rng.sample(range(len(pieces)), rng.randint(1, 2))) for _ in scheme.plan)
    randomized = TransmissionScheme(pieces, plan, rng.randint(0, 1))
    return f, [scheme, *tampered_schemes(scheme, k, rng), randomized]


def tampered_schemes(s, k, rng):
    """``s`` with its constant flipped, with one piece's vars moved and with
    one piece left out of its first plan row.  With two or more plan rows,
    also ``s`` with its rows reversed, which still decodes (the decoder
    XORs the rows), and with its last row a copy of its first, which
    cancels the first row's monomial and drops the last's."""
    out = [TransmissionScheme(s.pieces, s.plan, 1 - s.constant)]
    if s.pieces:
        i = rng.randrange(len(s.pieces))
        moved = s.pieces[i].vars_mask ^ (1 << rng.randrange(k)) or 1 << k - 1
        if Piece(s.pieces[i].server, moved) not in s.pieces:
            pieces = s.pieces[:i] + (Piece(s.pieces[i].server, moved),) + s.pieces[i + 1 :]
            out.append(TransmissionScheme(pieces, s.plan, s.constant))
        row = next(j for j, refs in enumerate(s.plan) if refs)
        plan = s.plan[:row] + (s.plan[row][1:],) + s.plan[row + 1 :]
        out.append(TransmissionScheme(s.pieces, plan, s.constant))
    if len(s.plan) >= 2:
        out.append(TransmissionScheme(s.pieces, s.plan[::-1], s.constant))
        out.append(TransmissionScheme(s.pieces, s.plan[:-1] + s.plan[:1], s.constant))
    return out


def test_exhaustive_verify_matches_the_truth_table_reference():
    # Acceptance 5's draws, every other one with a constant-1 term, their
    # exact and greedy schemes, and tampered copies that must fail at the
    # same first input the reference finds.
    rng = random.Random(2005)
    failed = 0
    for n in range(150):
        f = random_function(rng)
        if n % 2:
            f = BooleanFunctionANF.from_masks(f.num_datasets, (*f.monomials, 0))
        p = covering_placement(rng, f, rng.randint(1, 4))
        for scheme in (synthesize_exact(f, p), synthesize_greedy(f, p)):
            for s in (scheme, *tampered_schemes(scheme, f.num_datasets, rng)):
                result = verify_scheme(s, f)
                assert result == reference_verify(s, f), (f, s)
                if not result.passed:
                    failed += 1
                    w = result.counterexample
                    assert decode(s, f, w) != evaluate(f, w)
    assert failed >= 500


def test_exhaustive_verify_at_the_ends_of_its_range():
    # K = 1, K = 20 and K = 21, each against the truth-table reference.
    one = BooleanFunctionANF.from_indices(1, [[], [1]])
    only = Piece(1, 0b1)
    cases = [
        (one, TransmissionScheme((only,), ((0,),), 1)),
        (one, TransmissionScheme((only,), ((0,),), 0)),  # wrong at input 0
        (BooleanFunctionANF.from_indices(1, [[1]]), TransmissionScheme((), ((),), 0)),
    ]
    f20 = BooleanFunctionANF.from_indices(20, [[], [1, 2, 3], [3, 4, 19], [5, 20], [6, 7, 8, 20]])
    p20 = PlacementConfig.from_indices(10, [range(1, 11), range(11, 21), [3, 4, 19, 20]])
    scheme = synthesize_exact(f20, p20)
    cases.append((f20, scheme))
    cases += [(f20, s) for s in tampered_schemes(scheme, 20, random.Random(20))]
    outcomes = []
    for f, s in cases:
        result = verify_scheme(s, f)
        assert result == reference_verify(s, f)
        outcomes.append(result.passed)
    # f20's tampered copies all fail except the one with its rows reversed.
    assert outcomes == [True, False, False, True] + [False, False, False, True, False]
    f21 = BooleanFunctionANF.from_indices(21, [[1, 21]])
    s21 = TransmissionScheme((Piece(1, 1 | 1 << 20),), ((0,),))
    result = verify_scheme(s21, f21)
    assert result == reference_verify(s21, f21) == VerifyResult(True, 1 << 21, None)


def test_verify_matches_the_truth_table_reference_past_k20():
    # Past K = 20, K = 21 and 22 still fit the numpy truth-table reference.
    rng = random.Random(2122)
    failed = 0
    for k in (21, 22):
        for _ in range(3):
            f, schemes = wide_instance(rng, k)
            for s in schemes:
                result = verify_scheme(s, f)
                assert result == reference_verify(s, f), (f, s)
                failed += not result.passed
    assert failed >= 25


def test_verify_finds_the_lowest_failing_input_up_to_k64():
    rng = random.Random(2364)
    failed = 0
    for k in range(23, 65):
        f, schemes = wide_instance(rng, k)
        for s in schemes:
            result = verify_scheme(s, f)
            counter = lowest_failing_input(s, f)
            assert result == VerifyResult(counter is None, 1 << k, counter), (f, s)
            if counter is not None:
                failed += 1
                assert decode(s, f, counter) != evaluate(f, counter)
    assert failed >= 180


def test_exhaustive_verify_builds_no_truth_table(monkeypatch, example_function, overlap_placement):
    # A scheme is decided by the ANF of f XOR the decoder, and a failing
    # one is reported at that ANF's least monomial: verify builds no truth
    # table, under whatever name a module holds it.
    def refuse(f):
        raise AssertionError("exhaustive verify built a truth table")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "infplace" and hasattr(module, "truth_table"):
            monkeypatch.setattr(module, "truth_table", refuse)
    assert infplace.anf.truth_table is refuse
    scheme = synthesize_exact(example_function, overlap_placement)
    assert verify_scheme(scheme, example_function).passed
    # W2W5W7W8 = {2,5,7} * {8}; without {2,5,7} it first fails at W8 alone.
    assert scheme.plan[2] == (1, 3) and scheme.pieces[3].vars_mask == 1 << 7
    short = TransmissionScheme(scheme.pieces, (*scheme.plan[:2], (3,)), scheme.constant)
    assert verify_scheme(short, example_function) == VerifyResult(False, 512, 1 << 7)


def test_verify_rejects_plan_shape_mismatch(example_function):
    scheme = TransmissionScheme(pieces=(Piece(1, 0b1),), plan=((0,),), constant=0)
    with pytest.raises(ValueError):
        verify_scheme(scheme, example_function)


@pytest.mark.parametrize("k,past", [(3, 9), (3, 4), (21, 30), (21, 22), (63, 64)])
def test_a_piece_past_k_is_a_structure_error_and_is_not_decoded(k, past):
    # Narrow and wide K alike refuse before decoding.
    f = BooleanFunctionANF.from_indices(k, [[1, 2]])
    scheme = TransmissionScheme((Piece(1, 0b11), Piece(1, 1 << past - 1)), ((0,),))
    p = PlacementConfig.from_indices(2, [[1, 2]])
    want = [f"piece ({past},) on server 1: dataset(s) ({past},) past K={k}"]
    assert scheme_structure_errors(scheme, f) == want
    assert scheme_structure_errors(scheme, f, p) == want
    with pytest.raises(ValueError, match=f"past K={k}"):
        verify_scheme(scheme, f)
    inside = TransmissionScheme((Piece(1, 0b11), Piece(1, 1 << k - 1)), ((0,),))
    assert scheme_structure_errors(inside, f) == []
    assert verify_scheme(inside, f).passed


@st.composite
def random_instance(draw):
    k = draw(st.integers(3, 8))
    n_mon = draw(st.integers(1, 3))
    masks = draw(
        st.lists(st.integers(1, (1 << k) - 1), min_size=n_mon, max_size=n_mon)
    )
    f = BooleanFunctionANF.from_masks(k, masks)
    n = draw(st.integers(1, 3))
    subsets = [draw(st.integers(1, (1 << k) - 1)) for _ in range(n)]
    # force computability by assigning leftovers to the first server
    missing = f.support_mask & ~functools.reduce(operator.or_, subsets, 0)
    subsets[0] |= missing
    sizes = max((s.bit_count() for s in subsets), default=1)
    return f, PlacementConfig(n, sizes, tuple(subsets))


@given(random_instance())
@settings(max_examples=60, deadline=None)
def test_synthesized_schemes_always_decode(case):
    f, placement = case
    exact = synthesize_exact(f, placement)
    greedy = synthesize_greedy(f, placement)
    assert count_transmissions(exact).total <= count_transmissions(greedy).total
    # Synthesis builds its schemes in canonical order.
    assert exact == exact.canonical() and greedy == greedy.canonical()
    assert scheme_structure_errors(exact, f, placement) == []
    assert scheme_structure_errors(greedy, f, placement) == []
    assert verify_scheme(exact, f).passed
    assert verify_scheme(greedy, f).passed


def _set_partitions(items):
    """Every partition of ``items`` into nonempty frozensets."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i, block in enumerate(partition):
            yield partition[:i] + [block | {first}] + partition[i + 1 :]
        yield partition + [frozenset([first])]


def _partition_options(monomials, servers):
    """Per monomial, every partition of it whose blocks each fit on some server."""
    return [
        [
            frozenset(partition)
            for partition in _set_partitions(sorted(monomial))
            if all(any(block <= server for server in servers) for block in partition)
        ]
        for monomial in monomials
    ]


def brute_force_min_pieces(monomials, servers):
    """Fewest distinct var sets over every choice of one partition per
    monomial whose blocks each fit on some server: the exact piece count,
    found by enumeration alone."""
    return min(
        len(frozenset().union(*choice))
        for choice in itertools.product(*_partition_options(monomials, servers))
    )


def merged_min_pieces(monomials, servers, used=frozenset()):
    """The minimum of ``brute_force_min_pieces`` over the same choices,
    made one monomial at a time.  Choices so far that leave the same
    blocks for the later monomials to reuse are merged, keeping the
    fewest distinct blocks, which keeps 4-6 monomials fast.  Blocks in
    ``used`` are there already and not counted."""
    monomials = sorted(monomials, key=len, reverse=True)  # fewer reusable blocks
    fewest = {frozenset(used): 0}
    for j, partitions in enumerate(_partition_options(monomials, servers)):
        later = monomials[j + 1 :]
        reusable = frozenset(
            block
            for blocks in [*fewest, *partitions]
            for block in blocks
            if any(block <= m for m in later)
        )
        step = {}
        for kept, count in fewest.items():
            for partition in partitions:
                key = (kept | partition) & reusable
                total = count + len(partition - kept)
                step[key] = min(step.get(key, total), total)
        fewest = step
    return min(fewest.values())


def test_exact_piece_count_matches_brute_force_partitions():
    rng = random.Random(617)
    checked = beaten = 0
    while checked < 240:
        k = rng.randint(2, 7)
        monomials = [
            rng.sample(range(1, k + 1), rng.randint(1, min(5, k)))
            for _ in range(rng.randint(1, 3))
        ]
        servers = [
            set(rng.sample(range(1, k + 1), rng.randint(1, k)))
            for _ in range(rng.randint(1, 3))
        ]
        for i in set().union(*map(set, monomials)) - set().union(*servers):
            rng.choice(servers).add(i)
        f = BooleanFunctionANF.from_indices(k, monomials)
        if not f.non_constant_monomials:
            continue  # the draws cancelled out
        p = PlacementConfig.from_indices(max(map(len, servers)), [sorted(s) for s in servers])
        kept = [
            frozenset(i for i in range(1, k + 1) if m >> (i - 1) & 1)
            for m in f.non_constant_monomials
        ]
        t_exact = count_transmissions(synthesize_exact(f, p)).total
        t_greedy = count_transmissions(synthesize_greedy(f, p)).total
        want = brute_force_min_pieces(kept, servers)
        assert t_exact == want, (monomials, servers)
        assert merged_min_pieces(kept, servers) == want, (monomials, servers)
        checked += 1
        beaten += t_exact < t_greedy
    # The search, not just the greedy incumbent, decides some of them.
    assert beaten >= 5


def _draw_shared_var_instance(rng):
    """K 4-7, 4-6 monomials of degree at most 5, 1-4 servers holding every
    var: most vars lie in several monomials, where the search's bound
    tells the vars one monomial holds alone from shared ones."""
    while True:
        k = rng.randint(4, 7)
        monomials = [
            rng.sample(range(1, k + 1), rng.randint(1, min(5, k)))
            for _ in range(rng.randint(4, 6))
        ]
        servers = [
            set(rng.sample(range(1, k + 1), rng.randint(1, k)))
            for _ in range(rng.randint(1, 4))
        ]
        for i in set().union(*map(set, monomials)) - set().union(*servers):
            rng.choice(servers).add(i)
        f = BooleanFunctionANF.from_indices(k, monomials)
        if len(f.non_constant_monomials) >= 4:  # the draws may cancel
            break
    p = PlacementConfig.from_indices(max(map(len, servers)), [sorted(s) for s in servers])
    kept = [
        frozenset(i for i in range(1, k + 1) if m >> (i - 1) & 1)
        for m in f.non_constant_monomials
    ]
    return f, p, kept, servers


def _held_width(subset_masks):
    """The most vars of a mask that one server holds."""
    return lambda v: max((v & s).bit_count() for s in subset_masks)


def _shared_vars(rems):
    """Vars in two or more of ``rems``."""
    return functools.reduce(operator.or_, (a & b for a, b in itertools.combinations(rems, 2)), 0)


def _fixed_width_bound(rems, widest):
    """The bound with every set of monomial j divided by ``widest[j]``,
    its widest coverable block: what the search used before it divided
    each set by the most of that set one server holds."""
    shared = _shared_vars(rems)
    total = extra = 0
    for r, w in zip(rems, widest):
        private = -(-(r & ~shared).bit_count() // w)
        total += private
        extra = max(extra, -(-r.bit_count() // w) - private)
    return total + extra


def test_exact_piece_count_and_root_bound_match_brute_force_at_four_to_six_monomials():
    rng = random.Random(2406)
    beaten = tighter = floored = 0
    for _ in range(80):
        f, p, kept, servers = _draw_shared_var_instance(rng)
        want = merged_min_pieces(kept, servers)
        t_exact = count_transmissions(synthesize_exact(f, p)).total
        t_greedy = count_transmissions(synthesize_greedy(f, p)).total
        assert t_exact == want, (kept, servers)
        beaten += t_exact < t_greedy
        # The search's bound at its root never overestimates, is never
        # below the most new blocks any one monomial needs, and is never
        # below the bound with each monomial's widest block as its width.
        monomials = f.non_constant_monomials
        widest = [max((m & s).bit_count() for s in p.subset_masks) for m in monomials]
        root = _new_blocks_bound(monomials, _shared_vars(monomials), _held_width(p.subset_masks))
        widest_need = max(-(-m.bit_count() // w) for m, w in zip(monomials, widest))
        assert widest_need <= root <= want, (kept, servers)
        assert root >= _fixed_width_bound(monomials, widest), (kept, servers)
        tighter += root > widest_need
        # Nor do the GF(2) rank of the monomials and the floor, the
        # greatest of that bound, the rank and the clique's size.
        rank = _rank2(monomials)
        assert rank <= want, (kept, servers)
        floor = max(root, rank, sum(c.bit_count() for c in _clique(monomials, p.subset_masks)))
        assert floor <= want, (kept, servers)
        floored += floor > root
    assert beaten >= 10
    assert tighter >= 10
    assert floored >= 60  # the clique lifts most floors above that bound


def test_bound_at_inner_nodes_never_exceeds_the_fewest_new_blocks():
    # A partial state of the search: monomial i is the current one, with
    # one used block of it possibly placed already, the later monomials
    # are whole, and some coverable blocks of monomials[: i + 1] are used.
    rng = random.Random(1931)
    tight = sharper = 0
    for _ in range(150):
        f, p, kept, servers = _draw_shared_var_instance(rng)
        i = rng.randrange(len(kept))
        coverable = sorted(
            {
                frozenset(block)
                for m in kept[: i + 1]
                for size in range(1, len(m) + 1)
                for block in itertools.combinations(sorted(m), size)
                if any(set(block) <= s for s in servers)
            },
            key=sorted,
        )
        used = frozenset(rng.sample(coverable, rng.randint(0, min(6, len(coverable)))))
        placed = sorted((b for b in used if b <= kept[i]), key=sorted)
        rest = kept[i] - (rng.choice(placed) if placed else frozenset())
        rems = [r for r in (rest, *kept[i + 1 :]) if r]
        want = merged_min_pieces(rems, servers, used)
        masks = [mask_from_indices(sorted(r)) for r in rems]
        uncovered = [
            mask_from_indices(sorted(r.difference(*(b for b in used if b <= r))))
            for r in rems
        ]
        bound = _new_blocks_bound(uncovered, _shared_vars(masks), _held_width(p.subset_masks))
        assert bound <= want, (rems, sorted(map(sorted, used)), servers)
        tight += 0 < bound == want
        # The pending items: the clique's items whose var is still
        # uncovered in what is left of monomial i or in a later monomial.
        clique = _clique(f.non_constant_monomials, p.subset_masks)
        pending = sum(
            (mask_from_indices(sorted(r.difference(*(b for b in used if b <= r)))) & c).bit_count()
            for r, c in zip((rest, *kept[i + 1 :]), clique[i:])
        )
        assert pending <= want, (rems, sorted(map(sorted, used)), servers)
        sharper += pending > bound
    # Most states need new blocks, and the bound often finds all of them.
    assert tight >= 50
    # The pending items often count more of them than the bound.
    assert sharper >= 20


def test_no_block_covers_two_items_of_the_clique():
    # Brute force over every block some server holds: a block covers item
    # (j, v) when it holds v and lies inside monomial j.
    rng = random.Random(2507)
    sizes = []
    for n in range(150):
        if n % 2:
            f, p, _, _ = _draw_shared_var_instance(rng)
        else:
            f, p = _draw_wide_instance(rng)
        monomials = f.non_constant_monomials
        clique = _clique(monomials, p.subset_masks)
        assert all(c & ~m == 0 for c, m in zip(clique, monomials))
        blocks = set()
        for s in p.subset_masks:
            sub = s
            while sub:
                blocks.add(sub)
                sub = (sub - 1) & s
        for b in blocks:
            covered = sum((b & c).bit_count() for c, m in zip(clique, monomials) if b & ~m == 0)
            assert covered <= 1, (monomials, p.subset_masks, clique, b)
        sizes.append(sum(c.bit_count() for c in clique))
    assert min(sizes) >= 1 and max(sizes) >= 6


def test_a_clique_floor_at_the_greedy_count_skips_the_search(monkeypatch):
    # W1W2 + W2W3 + W1W3 with one server holding all three: every var is
    # in two monomials, so the plain bound is 1, but the items (W1W2, W2),
    # (W2W3, W3) and (W1W3, W1) need three distinct blocks, as many as
    # greedy uses, so no search node is visited.
    calls = []
    real = infplace.transmission._blocks_with_lowest

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(infplace.transmission, "_blocks_with_lowest", counted)
    f = BooleanFunctionANF.from_indices(3, [[1, 2], [2, 3], [1, 3]])
    p = PlacementConfig.from_indices(3, [[1, 2, 3]])
    monomials = f.non_constant_monomials
    assert _new_blocks_bound(monomials, 0b111, _held_width(p.subset_masks)) == 1
    # W1W2 ^ W2W3 = W1W3, so the rank floor is 2 and the clique is kept.
    assert _rank2(monomials) == 2
    assert sum(c.bit_count() for c in _clique(monomials, p.subset_masks)) == 3
    assert count_transmissions(synthesize_exact(f, p)).total == 3
    assert calls == []


def test_a_rank_floor_at_the_greedy_count_skips_the_search(monkeypatch):
    # Draw 0 of K = 16, six to eight monomials of degree 9-14 and one or
    # two random servers, the first also holding f's support: one server
    # holds all 16 datasets and six monomials of degree 12-14.  They are
    # independent over GF(2), so greedy's 6 pieces are optimal.  The
    # new-blocks bound is 1 and the clique 4; searching from those ran
    # for minutes.
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(infplace.transmission, "_blocks_with_lowest", no_search)
    rng = random.Random(1)
    masks = [
        mask_from_indices(rng.sample(range(1, 17), rng.randint(9, 14)))
        for _ in range(rng.randint(6, 8))
    ]
    f = BooleanFunctionANF.from_masks(16, masks)
    subsets = [rng.randrange(1, 1 << 16) for _ in range(rng.randint(1, 2))]
    subsets[0] |= f.support_mask
    p = PlacementConfig(len(subsets), max(s.bit_count() for s in subsets), tuple(subsets))
    assert _rank2(f.non_constant_monomials) == 6
    scheme = synthesize_exact(f, p)
    assert scheme == synthesize_greedy(f, p) and len(scheme.pieces) == 6


def test_rank2_is_the_log_of_the_span_size():
    rng = random.Random(3107)
    for _ in range(300):
        vectors = [rng.randrange(1 << 8) for _ in range(rng.randint(0, 9))]
        span = {0}
        for v in vectors:
            span |= {s ^ v for s in span}
        assert 1 << _rank2(vectors) == len(span), vectors


def _draw_wide_instance(rng):
    """K 8-12, 4-6 monomials of degree at most 7, 1-4 random servers with
    the uncovered support added to one of them."""
    while True:
        k = rng.randint(8, 12)
        masks = [
            mask_from_indices(rng.sample(range(1, k + 1), rng.randint(1, 7)))
            for _ in range(rng.randint(4, 6))
        ]
        f = BooleanFunctionANF.from_masks(k, masks)
        if len(f.non_constant_monomials) >= 4:
            break
    n = rng.randint(1, 4)
    subsets = [rng.randrange(1, 1 << k) for _ in range(n)]
    subsets[rng.randrange(n)] |= f.support_mask & ~functools.reduce(operator.or_, subsets)
    return f, PlacementConfig(n, max(s.bit_count() for s in subsets), tuple(subsets))


def test_exact_schemes_at_four_to_six_monomials_are_pinned():
    rng = random.Random(1106)
    digest = hashlib.sha256()
    for _ in range(200):
        f, p = _draw_wide_instance(rng)
        digest.update(scheme_to_json(synthesize_exact(f, p)).encode())
    # All 200 exact schemes, byte for byte, where the bound counts vars
    # shared by several monomials.  The pruning bound must not move them
    # (see _search_min_distinct).
    assert digest.hexdigest() == (
        "3a6af0feffe4d3d959ec01d264e2c018c86a52e1250488579f861210e855232d"
    )


def _draw_heavy_instance(rng):
    """K 10-12, 3-4 monomials of degree 5-9, 2-4 random servers with the
    uncovered support added to one of them: the shape of the slowest
    pairs in acceptance 5's corpus."""
    while True:
        k = rng.randint(10, 12)
        masks = [
            mask_from_indices(rng.sample(range(1, k + 1), rng.randint(5, 9)))
            for _ in range(rng.randint(3, 4))
        ]
        f = BooleanFunctionANF.from_masks(k, masks)
        if len(f.non_constant_monomials) >= 3:
            break
    n = rng.randint(2, 4)
    subsets = [rng.randrange(1, 1 << k) for _ in range(n)]
    subsets[rng.randrange(n)] |= f.support_mask & ~functools.reduce(operator.or_, subsets)
    return f, PlacementConfig(n, max(s.bit_count() for s in subsets), tuple(subsets))


def test_exact_schemes_of_wide_monomials_are_pinned():
    rng = random.Random(1612)
    digest = hashlib.sha256()
    for _ in range(100):
        f, p = _draw_heavy_instance(rng)
        digest.update(scheme_to_json(synthesize_exact(f, p)).encode())
    # All 100 exact schemes, byte for byte, where the search goes deep.
    # The digest was recorded while the bound divided every set of a
    # monomial by that monomial's widest coverable block; a tighter
    # admissible bound must not move it (see _search_min_distinct).
    assert digest.hexdigest() == (
        "5c3318b06f095d21a9272162e163d39a039e9ba554ed1a5a8ee06273ce41d004"
    )


def _draw_deep_instance(rng):
    """K 8-16, 2-6 monomials of degree at most 12, 1-5 random servers with
    the uncovered support added to one of them.  On 23 of the 80 pinned
    below, the search's floor falls short of the optimum, so it deepens
    past the floor."""
    while True:
        k = rng.randint(8, 16)
        masks = [
            mask_from_indices(rng.sample(range(1, k + 1), rng.randint(1, min(12, k))))
            for _ in range(rng.randint(2, 6))
        ]
        f = BooleanFunctionANF.from_masks(k, masks)
        if len(f.non_constant_monomials) >= 2:
            break
    n = rng.randint(1, 5)
    subsets = [rng.randrange(1, 1 << k) for _ in range(n)]
    subsets[rng.randrange(n)] |= f.support_mask & ~functools.reduce(operator.or_, subsets)
    return f, PlacementConfig(n, max(s.bit_count() for s in subsets), tuple(subsets))


def test_exact_schemes_of_deep_instances_are_pinned():
    rng = random.Random(2516)
    digest = hashlib.sha256()
    for _ in range(80):
        f, p = _draw_deep_instance(rng)
        digest.update(scheme_to_json(synthesize_exact(f, p)).encode())
    # All 80 exact schemes, byte for byte.  The digest was recorded while
    # the search started from the greedy count and kept every strictly
    # better leaf; the floor and the deepening must not move it (see
    # _search_min_distinct).
    assert digest.hexdigest() == (
        "0844e8678d6fcb8fd3cc5f1dbfb973dbe55ae64b07709131454c838cba6d91b5"
    )


def test_a_floor_one_below_greedy_searches_only_for_one_piece_fewer():
    # Greedy's 9 pieces are optimal and the clique floor is 8, so the
    # search only has to show that no leaf has 8 pieces.  Searching below
    # the greedy count for any better leaf took about a hundred times as
    # long.  The digest was recorded from that earlier search's scheme.
    f = BooleanFunctionANF.from_indices(
        16,
        [
            [1, 2, 4, 5, 6, 8, 10, 11, 12],
            [1, 2, 3, 6, 7, 8, 10, 11, 13],
            [1, 5, 6, 7, 9, 10, 11, 15],
            [2, 4, 5, 6, 8, 9, 10, 13, 15],
            [1, 2, 3, 4, 5, 8, 10, 11, 12, 13, 14, 15],
            [1, 2, 3, 4, 7, 9, 10, 13, 14, 16],
        ],
    )
    p = PlacementConfig.from_indices(
        13, [[1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 14, 15], [2, 5, 6, 9, 11, 14, 15, 16]]
    )
    monomials = f.non_constant_monomials
    assert sum(c.bit_count() for c in _clique(monomials, p.subset_masks)) == 8
    scheme = synthesize_exact(f, p)
    assert scheme == synthesize_greedy(f, p) and len(scheme.pieces) == 9
    assert hashlib.sha256(scheme_to_json(scheme).encode()).hexdigest() == (
        "f1dd94de9f79fca2f12c126833decbf4c6f70b56e9ac82f3d4369aba60877b55"
    )


def test_blocks_with_lowest_are_widest_first_then_in_variable_order():
    monomial = mask_from_indices(range(1, 11))
    servers = [monomial, 0b1111100000]
    by_low = {1 << v: _blocks_with_lowest(monomial, 1 << v, servers) for v in range(10)}
    for low, blocks in by_low.items():
        assert blocks
        assert all(b & -b == low for b in blocks)
        assert blocks == sorted(blocks, key=lambda b: (-b.bit_count(), indices_from_mask(b)))
    assert sum(map(len, by_low.values())) == (1 << 10) - 1


def test_synthesis_is_deterministic(example_function, window_placement):
    again = random.Random()  # unrelated RNG activity must not matter
    again.random()
    a = scheme_to_json(synthesize_exact(example_function, window_placement))
    b = scheme_to_json(synthesize_exact(example_function, window_placement))
    assert a == b


def test_blocks_with_lowest_match_the_reference_order():
    rng = random.Random(3003)
    for _ in range(300):
        k = rng.randint(1, 10)
        monomial = rng.randrange(1, 1 << k)
        servers = [rng.randrange(1, 1 << k) for _ in range(rng.randint(1, 4))]
        blocks = [
            b
            for b in range(1, 1 << k)
            if b & ~monomial == 0 and any(b & ~s == 0 for s in servers)
        ]
        want = {}
        for b in sorted(blocks, key=lambda b: (b.bit_count(), bin(b)[:1:-1]), reverse=True):
            want.setdefault(b & -b, []).append(b)
        # Every lowest var the monomial has on some server has a list.
        got = {
            1 << v: _blocks_with_lowest(monomial, 1 << v, servers)
            for v in range(k)
            if monomial >> v & 1 and any(s >> v & 1 for s in servers)
        }
        assert got.keys() == want.keys(), (monomial, servers)
        for low, blocks in want.items():
            assert got[low] == blocks, (monomial, servers, low)


def test_scheme_row_key_orders_masks_as_their_index_tuples():
    # _vars_key is the one vars order: Piece.sort_key, and so canonical(),
    # and the schemes synthesis builds all sort by it.
    rng = random.Random(4242)
    masks = [mask_from_indices(ix) for ix in ([1], [1, 2], [1, 2, 3], [1, 3], [2], [2, 3], [64])]
    for _ in range(1200):
        m = rng.randrange(1, 1 << rng.randint(1, 40))
        masks += [m, m | 1 << m.bit_length() + rng.randrange(4)]  # a prefix pair
    masks = list(dict.fromkeys(masks))
    assert len(masks) >= 2000

    # Distinct keys, and equal sorts: the two orders agree on every pair.
    assert len(set(map(_vars_key, masks))) == len(masks)
    assert sorted(masks, key=_vars_key) == sorted(masks, key=indices_from_mask)
    prefixes = 0
    for a, b in itertools.combinations(masks[:300], 2):
        ia, ib = indices_from_mask(a), indices_from_mask(b)
        prefixes += ib[: len(ia)] == ia or ia[: len(ib)] == ib
    assert prefixes >= 150
    pieces = [Piece(rng.randint(1, 3), m) for m in masks]
    assert sorted(pieces, key=Piece.sort_key) == sorted(
        pieces, key=lambda p: (p.server, indices_from_mask(p.vars_mask))
    )


def test_schemes_from_blocks_are_canonical():
    rng = random.Random(5151)
    same_server_prefixes = 0
    for _ in range(150):
        f, p = _draw_wide_instance(rng)
        for scheme in (synthesize_exact(f, p), synthesize_greedy(f, p)):
            assert scheme == scheme.canonical()
    # Blocks on one server where one's indices are a prefix of another's.
    for _ in range(150):
        k = rng.randint(2, 12)
        f = BooleanFunctionANF.from_masks(k, [(1 << k) - 1])
        p = PlacementConfig(1, k, ((1 << k) - 1,))
        blocks = {rng.randrange(1, 1 << k) for _ in range(rng.randint(1, 8))}
        blocks |= {b | 1 << b.bit_length() for b in blocks if b.bit_length() < k}
        scheme = _scheme_from_blocks(f, p, [sorted(blocks)])
        assert scheme == scheme.canonical()
        assert sorted(piece.vars_mask for piece in scheme.pieces) == sorted(blocks)
        same_server_prefixes += any(b | 1 << b.bit_length() in blocks for b in blocks)
    assert same_server_prefixes >= 100
