"""Influence analysis and transmission-scheme synthesis for XOR-of-monomial
Boolean functions computed from datasets spread across caching servers."""

__version__ = "0.1.0"

from .anf import (
    BooleanFunctionANF,
    ParseError,
    evaluate,
    function_to_json,
    parse_function,
    truth_table,
)
from .influence import (
    EstimatorConfig,
    ExactInfluence,
    InfluenceEstimate,
    InfluenceValue,
    avg_joint_sensitivity,
    joint_influence_exact,
    joint_influence_mc,
    joint_sensitivity,
)
from .placement import (
    PlacementConfig,
    PlacementConstraints,
    aligned_placement,
    cyclic_placement,
    parse_placement,
    placement_to_json,
    search_min_as,
)
from .transmission import (
    TransmissionScheme,
    count_transmissions,
    decode,
    parse_scheme,
    scheme_to_json,
    synthesize_exact,
    synthesize_greedy,
    verify_scheme,
)

__all__ = [
    "BooleanFunctionANF",
    "EstimatorConfig",
    "ExactInfluence",
    "InfluenceEstimate",
    "InfluenceValue",
    "ParseError",
    "PlacementConfig",
    "PlacementConstraints",
    "TransmissionScheme",
    "aligned_placement",
    "avg_joint_sensitivity",
    "count_transmissions",
    "cyclic_placement",
    "decode",
    "evaluate",
    "function_to_json",
    "joint_influence_exact",
    "joint_influence_mc",
    "joint_sensitivity",
    "parse_function",
    "parse_placement",
    "parse_scheme",
    "placement_to_json",
    "scheme_to_json",
    "search_min_as",
    "synthesize_exact",
    "synthesize_greedy",
    "truth_table",
    "verify_scheme",
]
