"""Byte-for-byte stdout of every command on small fixed graphs.

Each ``golden/<case>.out`` holds the stdout of ``greenwalk <argv>`` as
printed by the per-scalar renderer that preceded row-at-a-time
formatting; a change to any of them is a change to the output format.
"""

from pathlib import Path

import pytest

from greenwalk.cli import main

GOLDEN = Path(__file__).parent / "golden"
D = str(GOLDEN / "directed.edges")
U = str(GOLDEN / "undirected.edges")
TREE = str(GOLDEN / "tree.edges")
JSON = str(GOLDEN / "small.json")

CASES = {
    "hitting-directed": ["hitting", "--input", D],
    "hitting-directed-csv": ["hitting", "--input", D, "--format", "csv"],
    "hitting-undirected": ["hitting", "--input", U],
    "hitting-undirected-csv": ["hitting", "--input", U, "--format", "csv"],
    "hitting-json-input": ["hitting", "--input", JSON],
    "green-directed": ["green", "--input", D],
    "green-directed-csv": ["green", "--input", D, "--format", "csv"],
    "green-directed-vertex": ["green", "--input", D, "--target", "2"],
    "green-undirected": ["green", "--input", U],
    "green-undirected-uniform-csv": ["green", "--input", U, "--target", "uniform", "--format", "csv"],
    "green-undirected-lazy": ["green", "--input", U, "--lazy", "0.25"],
    "exitfreq-directed": ["exitfreq", "--input", D],
    "exitfreq-undirected-uniform": ["exitfreq", "--input", U, "--target", "uniform"],
    "mixing-directed": ["mixing", "--input", D],
    "mixing-undirected": ["mixing", "--input", U],
    "spectral-undirected": ["spectral", "--input", U],
    "dual-directed": ["dual", "--input", D],
    "dual-undirected": ["dual", "--input", U],
    "family-path": ["family", "path", "5"],
    "family-toric": ["family", "toric", "3", "4"],
    "family-toric-measure": ["family", "toric", "3", "4", "--measure", "thit"],
    "family-complete-measure": ["family", "complete", "4", "--measure", "tmix"],
    "family-tree": ["family", "tree", "--input", TREE],
    "simulate-directed": ["simulate", "--input", D, "--start", "0", "--stop", "3", "--trials", "300", "--seed", "11"],
    "simulate-directed-lazy": [
        "simulate", "--input", D, "--start", "4", "--stop", "1", "--trials", "300", "--seed", "3", "--lazy", "0.5",
    ],
    "simulate-undirected-random-target": ["simulate", "--input", U, "--start", "1", "--trials", "300", "--seed", "5"],
    "verify-directed": ["verify", "--input", D],
    "verify-undirected": ["verify", "--input", U],
    "verify-undirected-lazy": ["verify", "--input", U, "--lazy", "0.3"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, capsys):
    code = main(list(CASES[case]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
