"""The three file formats: each value a constructor accepts is one its
file can hold, so every file the library writes parses back."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infplace.anf import (
    MAX_DATASETS,
    BooleanFunctionANF,
    ParseError,
    function_to_json,
    monomial_sort_key,
    parse_function,
)
from infplace.cli import main
from infplace.placement import PlacementConfig, parse_placement, placement_to_json
from infplace.transmission import (
    Piece,
    TransmissionScheme,
    parse_scheme,
    scheme_to_json,
)

# Integers drawn across the edges of every rule, plus values of other types.
EDGE_INTS = st.one_of(
    st.integers(-2, 8),
    st.sampled_from([MAX_DATASETS, MAX_DATASETS + 1, (1 << MAX_DATASETS) - 1, 1 << MAX_DATASETS]),
    st.integers(0, 1 << 70),
)
ODD_VALUES = st.sampled_from([True, False, 1.0, "1", None])
FIELDS = st.one_of(EDGE_INTS, ODD_VALUES)


def mostly(valid):
    """Draw from ``valid`` about three times in four, else from FIELDS."""
    return st.integers(0, 3).flatmap(lambda i: valid if i else FIELDS)


def build(cls, *args):
    """The value, or None when the constructor refuses it with ParseError."""
    try:
        return cls(*args)
    except ParseError:
        return None


# Values that the constructors accepted although no file may hold them:
# their parsers refused the file written from them, or, for a constant
# of true or 1.0, read it back unchanged.  count_transmissions counted the
# server-0 piece for the last server; no scheme can hold it now.
NO_FILE_HOLDS = [
    pytest.param(BooleanFunctionANF, (True, (1,)), '"K" must be a positive integer, got True',
                 id="function-K-true"),
    pytest.param(PlacementConfig, (1, 1, (0b11,)), "server 1 holds 2 datasets, more than M=1",
                 id="placement-over-M"),
    pytest.param(PlacementConfig, (0, 2, ()), '"N" must be a positive integer, got 0',
                 id="placement-N-0"),
    pytest.param(PlacementConfig, (1, 0, (0,)), '"M" must be a positive integer, got 0',
                 id="placement-M-0"),
    pytest.param(PlacementConfig, (1, 1, (1 << 70,)), f"bad subset mask {1 << 70}",
                 id="placement-past-64"),
    pytest.param(PlacementConfig, (True, 2, (3,)), '"N" must be a positive integer, got True',
                 id="placement-N-true"),
    pytest.param(TransmissionScheme, ((Piece(0, 1),), ((0,),)),
                 "piece server must be a positive integer, got 0", id="scheme-server-0"),
    pytest.param(TransmissionScheme, ((Piece(1, 0),), ((0,),)), "piece with empty vars",
                 id="scheme-empty-vars"),
    pytest.param(TransmissionScheme, ((Piece(1, 1),), ((0,),), True),
                 '"constant" must be 0 or 1, got True', id="scheme-constant-true"),
    pytest.param(TransmissionScheme, ((Piece(1, 1),), ((0,),), 1.0),
                 '"constant" must be 0 or 1, got 1.0', id="scheme-constant-float"),
]


@pytest.mark.parametrize("cls,args,message", NO_FILE_HOLDS)
def test_values_no_file_can_hold_are_refused(cls, args, message):
    with pytest.raises(ParseError) as err:
        cls(*args)
    assert str(err.value) == message


@st.composite
def functions(draw):
    k = draw(mostly(st.integers(1, 10)))
    masks = draw(st.lists(mostly(st.integers(0, 63)), max_size=4))
    masks = sorted({m for m in masks if type(m) is int and m >= 0}, key=monomial_sort_key)
    if draw(st.integers(0, 4)) == 0:
        masks.insert(0, draw(st.sampled_from([-1, "1", 1 << 70])))
    return k, tuple(masks)


@given(functions())
@example((True, (1,)))
@example((MAX_DATASETS, ((1 << MAX_DATASETS) - 1,)))
@settings(max_examples=300, deadline=None)
def test_function_is_refused_or_round_trips(case):
    f = build(BooleanFunctionANF, *case)
    if f is not None:
        assert parse_function(function_to_json(f)) == f


@st.composite
def placements(draw):
    masks = tuple(draw(st.lists(mostly(st.integers(0, 63)), max_size=4)))
    return draw(mostly(st.just(len(masks)))), draw(mostly(st.integers(1, 8))), masks


@given(placements())
@example((1, 1, (0b11,)))
@example((0, 2, ()))
@example((1, 0, (0,)))
@example((1, 1, (1 << 70,)))
@example((True, 2, (3,)))
@example((2, 3, (0b111, 0)))
@settings(max_examples=300, deadline=None)
def test_placement_is_refused_or_round_trips(case):
    p = build(PlacementConfig, *case)
    if p is not None:
        assert parse_placement(placement_to_json(p)) == p


@st.composite
def schemes(draw):
    pieces = tuple(
        Piece(draw(mostly(st.integers(1, 3))), draw(mostly(st.integers(1, 63))))
        for _ in range(draw(st.integers(0, 3)))
    )
    refs = mostly(st.integers(0, max(len(pieces) - 1, 0)))
    plan = tuple(tuple(draw(st.lists(refs, max_size=3))) for _ in range(draw(st.integers(0, 3))))
    return pieces, plan, draw(mostly(st.sampled_from([0, 1])))


@given(schemes())
@example(((Piece(0, 1),), ((0,),), 0))
@example(((Piece(1, 0),), ((0,),), 0))
@example(((Piece(2, 0b11), Piece(1, 0b1)), ((1,), (0, 1)), 1))
@example(((Piece(1, 1),), ((True,),), 0))
@settings(max_examples=300, deadline=None)
def test_scheme_is_refused_or_round_trips(case):
    s = build(TransmissionScheme, *case)
    if s is not None:
        # The file lists the pieces in canonical order.
        assert parse_scheme(scheme_to_json(s)) == s.canonical()


FUNCTION = '{"K":2,"monomials":[[1,2]]}'


@pytest.mark.parametrize(
    "argv,name,text,line",
    [
        (["influence", "-f", "f.json", "--subset", "1"], "f.json",
         '{"K":"2","monomials":[[1,2]]}', """error: "K" must be a positive integer, got '2'"""),
        (["avg-sensitivity", "-f", "f.json", "-p", "p.json"], "p.json",
         '{"N":"1","M":2,"subsets":[[1,2]]}', """error: "N" must be a positive integer, got '1'"""),
        (["avg-sensitivity", "-f", "f.json", "-p", "p.json"], "p.json",
         '{"N":1,"M":"2","subsets":[[1,2]]}', """error: "M" must be a positive integer, got '2'"""),
        (["verify", "-s", "s.json", "-f", "f.json"], "s.json",
         '{"constant":0,"pieces":[{"server":"1","vars":[1,2]}],"plan":[[0]]}',
         "error: piece server must be a positive integer, got '1'"),
        (["verify", "-s", "s.json", "-f", "f.json"], "s.json",
         '{"constant":0,"pieces":[{"server":1,"vars":[1,2]}],"plan":[["0"]]}',
         "error: plan references unknown piece '0'"),
        (["verify", "-s", "s.json", "-f", "f.json"], "s.json",
         '{"constant":true,"pieces":[{"server":1,"vars":[1,2]}],"plan":[[0]]}',
         'error: "constant" must be 0 or 1, got True'),
    ],
    ids=["K", "N", "M", "server", "plan-reference", "constant-true"],
)
def test_a_string_field_exits_2_with_a_message(argv, name, text, line, tmp_path, capsys):
    for path, content in {"f.json": FUNCTION, name: text}.items():
        (tmp_path / path).write_text(content)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == line + "\n"
