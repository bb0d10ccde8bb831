"""The runtime imports of the package are exactly its declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

import infplace

PACKAGE_DIR = Path(infplace.__file__).resolve().parent
PYPROJECT = PACKAGE_DIR.parents[1] / "pyproject.toml"


def third_party_imports() -> set[str]:
    """Top-level names of every absolute import in the package, function-level
    imports included, less the standard library and the package itself."""
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"infplace"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_imports_match_declared_dependencies():
    import tomllib

    project = tomllib.loads(PYPROJECT.read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group() for d in project["dependencies"]}
    assert third_party_imports() == declared == {"numpy"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_numpy_floor_has_bitwise_count():
    # The exact influence count takes popcounts with np.bitwise_count, new in 2.0.
    import tomllib

    project = tomllib.loads(PYPROJECT.read_text())["project"]
    (spec,) = [d for d in project["dependencies"] if d.startswith("numpy")]
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)(?:\.\d+)?", spec)
    assert floor and tuple(map(int, floor.groups())) >= (2, 0), spec


def test_only_anf_builds_a_bit_generator():
    # numpy's bounded-draw layout is decided in one place, anf.sample_blocks.
    stream_names = {"PCG64", "SeedSequence", "random_raw"}
    naming = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            # A variable, an attribute, an imported or a defined name.
            if stream_names & {getattr(node, a, None) for a in ("id", "attr", "name")}:
                naming.add(path.name)
    assert naming == {"anf.py"}


def test_only_influence_calls_sample_blocks():
    # Verification decides every input exactly; only the Monte Carlo
    # estimator samples.
    calling = set()
    for path in PACKAGE_DIR.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name == "sample_blocks":
                    calling.add(path.name)
    assert calling == {"influence.py"}
