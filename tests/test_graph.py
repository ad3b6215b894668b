import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwalk.errors import ParseError, ValidationError
from greenwalk.generators import (
    random_connected_graph,
    random_strongly_connected_digraph,
    wide_cycle_digraph,
    wide_holding_cycle,
    wide_path_graph,
)
from greenwalk.graph import (
    Distribution,
    TransitionMatrix,
    WeightedDigraph,
    load_graph,
    parse_graph,
    stationary_distribution,
    strongly_connected,
    transition_matrix,
    validate_out_degrees,
)
from greenwalk import families, graph


class TestParsing:
    def test_directed_cycle(self):
        g = parse_graph("0 1 1\n1 2 1\n2 0 1")
        assert g.n == 3 and not g.undirected
        assert g.weights[0, 1] == 1.0 and g.weights[1, 0] == 0.0

    def test_undirected_path_symmetrized(self):
        g = parse_graph("# undirected\n0 1 1\n1 2 1")
        assert g.undirected
        assert g.weights[1, 0] == 1.0 and g.weights[2, 1] == 1.0
        assert g.volume == 4.0

    def test_weight_defaults_to_one(self):
        g = parse_graph("0 1\n1 0")
        assert g.weights[0, 1] == 1.0

    def test_negative_weight(self):
        with pytest.raises(ParseError, match="negative weight"):
            parse_graph("0 1 -2")

    def test_malformed_line_names_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("0 1 1\n1 2 1 7 9")

    def test_zero_out_weight_vertex(self):
        with pytest.raises(ValidationError, match="zero outgoing"):
            parse_graph("0 1 1")

    @pytest.mark.parametrize(
        "name, text, vertex",
        [
            ("huge.edges", "0 99999999999999999999\n99999999999999999999 0\n", 1),
            ("huge.json", '{"n": 1e20, "arcs": [[0, 1], [1, 0]]}', 2),
        ],
        ids=["edgelist", "json"],
    )
    def test_huge_vertex_index_is_one(self, tmp_path, capsys, name, text, vertex):
        from greenwalk.cli import main

        path = tmp_path / name
        path.write_text(text)
        assert main(["hitting", "--input", str(path)]) == 1
        assert capsys.readouterr().err == f"error: vertex {vertex} has zero outgoing weight\n"

    def test_more_vertices_than_arcs_builds_no_degrees(self, monkeypatch):
        g = WeightedDigraph(3_000_000_001, [(0, 1, 1.0), (1, 0, 1.0), (3_000_000_000, 0, 1.0)])
        monkeypatch.setattr(WeightedDigraph, "degrees", property(lambda self: pytest.fail("degrees of 3e9 vertices")))
        with pytest.raises(ValidationError, match="vertex 2 has zero outgoing weight"):
            validate_out_degrees(g)

    def test_json_format(self):
        text = '{"n": 3, "undirected": true, "arcs": [[0, 1, 1.0], [1, 2, 2.0]]}'
        g = parse_graph(text, fmt="json")
        assert g.undirected and g.weights[2, 1] == 2.0

    def test_json_out_of_range_index(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_graph('{"n": 2, "arcs": [[0, 5, 1.0]]}', fmt="json")

    def test_json_garbage(self):
        with pytest.raises(ParseError):
            parse_graph("{not json", fmt="json")


class TestLoadGraph:
    JSON = '{"n": 2, "arcs": [[0, 1, 2.0], [1, 0]]}'

    def test_json_suffix_inferred(self, tmp_path):
        path = tmp_path / "g.JSON"
        path.write_text(self.JSON)
        g = load_graph(str(path))
        assert g.n == 2 and g.weights[0, 1] == 2.0

    def test_other_suffix_is_edge_list(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(self.JSON)
        with pytest.raises(ParseError, match="line 1"):
            load_graph(str(path))

    def test_format_overrides_suffix(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text(self.JSON)
        assert load_graph(str(path), "json").n == 2

    def test_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("# undirected\n0 1 0.5\n"))
        g = load_graph("-")
        assert g.undirected and g.weights[1, 0] == 0.5

    def test_stdin_json(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(self.JSON))
        assert load_graph("-", "json").weights[1, 0] == 1.0

    @pytest.mark.parametrize("block", [1, 4, 7, 1 << 20])
    @pytest.mark.parametrize("text", ["", "0 1\n", "0 1", "0 1 2.5\n\n1 0\n# c\n2 0 1e-3", "\n\n0 1\n1 2\n2 0\n"])
    def test_lines_split_a_block_at_a_time_as_splitlines_does(self, monkeypatch, text, block):
        monkeypatch.setattr(graph, "_LINE_BLOCK", block)
        assert list(graph._lines(text)) == text.splitlines()


class TestAccumulation:
    @settings(max_examples=25, deadline=None)
    @given(
        arcs=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.floats(0.0, 1e6, allow_subnormal=True)),
            min_size=1,
            max_size=40,
        ),
        undirected=st.booleans(),
    )
    def test_parallel_arcs_add_in_arc_order(self, arcs, undirected):
        # reference: the per-arc loop, whose rounding the arrays must match bit for bit
        g = WeightedDigraph(5, tuple(arcs), undirected=undirected)
        W, deg = np.zeros((5, 5)), np.zeros(5)
        for i, j, w in g.arcs:
            W[i, j] += w
            deg[i] += w
        assert np.array_equal(g.weights, W) and np.array_equal(g.degrees, deg)


class TestTransitionMatrix:
    def test_complete_graph(self):
        P = transition_matrix(families.complete_graph(3))
        assert np.allclose(P.probs, (np.ones((3, 3)) - np.eye(3)) / 2.0)

    def test_path_no_laziness(self):
        P = transition_matrix(families.path_graph(3))
        assert P.probs[0, 1] == 1.0
        assert P.probs[1, 0] == 0.5 and P.probs[1, 2] == 0.5

    def test_path_lazy_blend(self):
        P = transition_matrix(families.path_graph(3), beta=0.5)
        assert P.probs[0, 0] == 0.5 and P.probs[0, 1] == 0.5
        assert P.probs[1, 1] == 0.5
        assert P.probs[1, 0] == 0.25 and P.probs[1, 2] == 0.25

    def test_beta_out_of_range(self):
        g = families.path_graph(3)
        with pytest.raises(ValidationError):
            transition_matrix(g, beta=1.0)
        with pytest.raises(ValidationError):
            transition_matrix(g, beta=-0.1)

    def test_rejects_nonstochastic_rows(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            TransitionMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValidationError, match="must be finite"):
            TransitionMatrix(np.full((2, 2), bad))
        with pytest.raises(ValidationError, match="must be finite"):
            TransitionMatrix(np.array([[0.5, 0.5], [bad, 0.5]]))

    def test_takes_over_an_accepted_array_and_leaves_a_rejected_one(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert TransitionMatrix(probs).probs is probs
        assert not probs.flags.writeable
        rejected = np.array([[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(ValidationError, match="sum to 1"):
            TransitionMatrix(rejected)
        assert rejected.flags.writeable

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 20), seed=st.integers(0, 10**6), beta=st.floats(0.0, 0.9))
    def test_rows_stochastic(self, n, seed, beta):
        P = transition_matrix(random_strongly_connected_digraph(n, seed), beta)
        assert np.abs(P.probs.sum(axis=1) - 1.0).max() <= 1e-12


class TestStationary:
    def test_cycle_uniform(self):
        P = transition_matrix(families.cycle_graph(4))
        pi = stationary_distribution(P)
        assert np.allclose(pi.probs, 0.25, atol=1e-15)

    def test_path_degrees_over_volume(self):
        P = transition_matrix(families.path_graph(3))
        assert np.allclose(stationary_distribution(P).probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_directed_cycle_uniform(self, directed_triangle):
        assert np.allclose(directed_triangle.stationary.probs, 1.0 / 3.0, atol=1e-12)

    def test_not_strongly_connected(self):
        g = WeightedDigraph(2, ((0, 1, 1.0), (1, 1, 1.0)))
        P = transition_matrix(g)
        with pytest.raises(ValidationError, match="not strongly connected"):
            stationary_distribution(P)

    def test_solver_matches_closed_form(self):
        # strip the graph so the LU path runs, then compare with deg/vol
        g = random_connected_graph(15, seed=3)
        P = transition_matrix(g)
        solved = stationary_distribution(TransitionMatrix(P.probs))
        assert np.abs(solved.probs - g.degrees / g.volume).max() <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 15), seed=st.integers(0, 10**6), beta=st.floats(0.0, 0.9))
    def test_laziness_keeps_stationary(self, n, seed, beta):
        g = random_strongly_connected_digraph(n, seed)
        base = stationary_distribution(transition_matrix(g))
        lazy = stationary_distribution(transition_matrix(g, beta))
        assert np.abs(base.probs - lazy.probs).max() <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 15), seed=st.integers(0, 10**6))
    def test_fixed_vector_residual(self, n, seed):
        g = random_strongly_connected_digraph(n, seed)
        P = transition_matrix(g)
        pi = stationary_distribution(P)
        assert np.abs(pi.probs @ P.probs - pi.probs).max() <= 1e-10


def _assert_matches_closure(g: WeightedDigraph) -> None:
    """strongly_connected, and stationary_distribution on every chain of g, agree with a boolean transitive closure.

    The closure squares the reflexive support I or (W > 0) until it covers
    paths of n - 1 arcs. stationary_distribution must reject the chain exactly
    when the closure has a gap: with and without laziness, and with the
    graph detached, so the directed route runs on undirected supports too.
    """
    reach = np.eye(g.n, dtype=np.int64) | (g.weights > 0)
    for _ in range(g.n.bit_length()):
        reach = ((reach @ reach) > 0).astype(np.int64)
    connected = bool(reach.all())
    assert strongly_connected(g) == connected
    if (g.degrees <= 0).any():
        return  # no transition matrix: some vertex has no outgoing weight
    for beta in (0.0, 0.5):
        P = transition_matrix(g, beta)
        for chain in (P, TransitionMatrix(P.probs, beta)):
            if connected:
                stationary_distribution(chain)
            else:
                with pytest.raises(ValidationError, match="^not strongly connected$"):
                    stationary_distribution(chain)


class TestStronglyConnected:
    def test_directed_cycle(self):
        assert strongly_connected(WeightedDigraph(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0))))

    def test_single_arc(self):
        assert not strongly_connected(WeightedDigraph(2, ((0, 1, 1.0),)))

    def test_undirected_path(self):
        assert strongly_connected(families.path_graph(3))

    def test_zero_weight_arcs_do_not_connect(self):
        g = WeightedDigraph(2, ((0, 1, 1.0), (1, 0, 0.0)))
        assert not strongly_connected(g)

    def test_single_vertex(self):
        assert strongly_connected(WeightedDigraph(1))
        _assert_matches_closure(WeightedDigraph(1, ((0, 0, 2.0),)))

    @pytest.mark.parametrize("back", [None, (4, 0, 1.0), (4, 0, 0.0)])
    def test_two_blocks_joined_by_one_arc(self, back):
        # the cycle 0 -> 1 -> 2 -> 0 and the pair 3 <-> 4, joined by 2 -> 3; an arc 4 -> 0 closes the loop
        arcs = [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 4, 1.0), (4, 3, 1.0), (2, 3, 1.0)]
        g = WeightedDigraph(5, arcs + ([back] if back else []))
        assert strongly_connected(g) == (back is not None and back[2] > 0)
        _assert_matches_closure(g)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_transitive_closure(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from([0.0, 0.5, 1.0, 3.0]))
        arcs = data.draw(st.lists(arc, max_size=3 * n), label="arcs")
        # a path through every vertex, one way, the other or both: so that 0 reaches
        # everything, or everything reaches 0, or both, and each sweep direction is decisive
        backbone = data.draw(st.sampled_from(["none", "forward", "backward", "both"]), label="backbone")
        if backbone in ("forward", "both"):
            arcs += [(k, k + 1, 1.0) for k in range(n - 1)]
        if backbone in ("backward", "both"):
            arcs += [(k + 1, k, 1.0) for k in range(n - 1)]
        g = WeightedDigraph(n, arcs, undirected=data.draw(st.booleans(), label="undirected"))
        _assert_matches_closure(g)


class TestDistribution:
    def test_point_mass(self):
        d = Distribution.point_mass(4, 2)
        assert d[2] == 1.0 and d.probs.sum() == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            Distribution(np.array([1.2, -0.2]))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError):
            Distribution(np.array([0.5, 0.4]))

    @pytest.mark.parametrize("probs", [[np.nan, 0.5], [np.nan, np.nan], [np.inf, 0.0]])
    def test_non_finite_rejected(self, probs):
        with pytest.raises(ValidationError, match="must be finite"):
            Distribution(np.array(probs))

    def test_graph_rejects_bad_index(self):
        with pytest.raises(ValidationError, match="out of range"):
            WeightedDigraph(2, ((0, 2, 1.0),))


class TestJsonTypes:
    """JSON input takes JSON integers for n and vertices, and a JSON boolean for undirected."""

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"n": 3, "arcs": [[0, 1.7, 1.0], [1, 2], [2, 0]]}', "arc #0: vertex index is not an integer"),
            ('{"n": 3, "arcs": [[0, 1], [1, 2], [true, 0]]}', "arc #2: non-numeric entry"),
            ('{"n": 3, "arcs": [[0, 1], [1, "2"], [2, 0]]}', "arc #1: non-numeric entry"),
            ('{"n": 3, "arcs": [[0, 1, false], [1, 2], [2, 0]]}', "arc #0: non-numeric entry"),
            ('{"n": 3, "arcs": [[0, 1], [1, 2, null], [2, 0]]}', "arc #1: non-numeric entry"),
            pytest.param('{"n": 3, "arcs": [[0, 1, 1%s]]}' % ("0" * 400), "arc #0: non-finite weight", id="huge-weight"),
            ('{"n": 3.9, "arcs": [[0, 1], [1, 2], [2, 0]]}', "integer field 'n'"),
            ('{"n": true, "arcs": [[0, 0]]}', "integer field 'n'"),
            ('{"n": "3", "arcs": [[0, 1], [1, 2], [2, 0]]}', "integer field 'n'"),
            ('{"n": 2, "undirected": "false", "arcs": [[0, 1]]}', "'undirected' must be true or false"),
            ('{"n": 2, "undirected": 0, "arcs": [[0, 1]]}', "'undirected' must be true or false"),
            ('{"n": 2, "arcs": [[0, 1], [1, 0, 1, 5]]}', "arc #1: expected"),
        ],
    )
    def test_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_graph(text, fmt="json")

    def test_integral_floats_are_integers(self):
        g = parse_graph('{"n": 3.0, "arcs": [[0, 1.0, 2], [1, 2], [2.0, 0, 0.5]]}', fmt="json")
        assert g.n == 3 and type(g.n) is int
        assert g.arcs == ((0, 1, 2.0), (1, 2, 1.0), (2, 0, 0.5))

    def test_undirected_false_is_directed(self):
        g = parse_graph('{"n": 2, "undirected": false, "arcs": [[0, 1], [1, 0, 3]]}', fmt="json")
        assert not g.undirected and g.weights[0, 1] == 1.0 and g.weights[1, 0] == 3.0

    def test_cli_exit_code(self, tmp_path, capsys):
        from greenwalk.cli import main

        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "arcs": [[0, 1.7, 1.0], [1, 2], [2, 0]]}')
        assert main(["hitting", "--input", str(path)]) == 1
        assert "arc #0" in capsys.readouterr().err


class TestColumns:
    def test_columns_are_read_only(self):
        g = random_strongly_connected_digraph(6, 1)
        for column in (g.src, g.dst, g.w):
            assert not column.flags.writeable
        with pytest.raises(AttributeError):
            g.n = 4

    def test_arcs_are_python_scalars(self):
        # writers print arcs with repr, which must not show numpy scalar types
        g = random_strongly_connected_digraph(6, 1)
        assert all(type(i) is int and type(j) is int and type(w) is float for i, j, w in g.arcs)
        assert parse_graph("0 1 0.1\n1 0 2").arcs == ((0, 1, 0.1), (1, 0, 2.0))

    def test_mirrors_follow_their_arcs(self):
        g = WeightedDigraph(3, ((0, 1, 1.5), (2, 2, 1.0), (1, 2, 0.5)), undirected=True)
        assert g.arcs == ((0, 1, 1.5), (1, 0, 1.5), (2, 2, 1.0), (1, 2, 0.5), (2, 1, 0.5))

    def test_from_columns_matches_triples(self):
        arcs = ((0, 1, 0.25), (1, 2, 1.0), (2, 0, 3.0), (0, 1, 0.5))
        by_columns = WeightedDigraph.from_columns(3, [0, 1, 2, 0], [1, 2, 0, 1], [0.25, 1.0, 3.0, 0.5], True)
        by_triples = WeightedDigraph(3, arcs, undirected=True)
        assert by_columns.arcs == by_triples.arcs
        assert np.array_equal(by_columns.weights, by_triples.weights)

    @pytest.mark.parametrize(
        "arcs,message",
        [
            # the first bad arc in arc order, then range before finiteness before sign
            (((0, 1, -1.0), (0, 5, 1.0)), r"arc \(0, 1\) has negative weight -1.0"),
            (((0, 1, 1.0), (0, 5, float("nan"))), r"arc \(0, 5\) out of range for n=3"),
            (((0, 1, 1.0), (1, 2, float("inf")), (0, 9, 1.0)), r"arc \(1, 2\) has non-finite weight"),
            (((0, 1, 1.0), (-1, 2, -2.0)), r"arc \(-1, 2\) out of range for n=3"),
            (((0, 10**20, 1.0),), r"arc \(0, 100000000000000000000\) out of range for n=3"),
        ],
    )
    def test_first_bad_arc_reported(self, arcs, message):
        with pytest.raises(ValidationError, match=message):
            WeightedDigraph(3, arcs)



class TestWideWeightShapes:
    """Each wide-weight shape starts with its ring, keeps every weight within 10^(+-decades), is strongly
    connected, and is fixed by its seed."""

    RINGS = {
        wide_cycle_digraph: [(k, (k + 1) % 8) for k in range(8)],
        wide_holding_cycle: [arc for k in range(8) for arc in ((k, (k + 1) % 8), (k, k))],
        wide_path_graph: [arc for k in range(7) for arc in ((k, k + 1), (k + 1, k))],
    }

    @pytest.mark.parametrize("decades", [0, 3, 6])
    @pytest.mark.parametrize("shape", list(RINGS), ids=lambda shape: shape.__name__)
    def test_shape(self, shape, decades):
        g = shape(8, 5, decades)
        ring = self.RINGS[shape]
        assert list(zip(g.src.tolist(), g.dst.tolist()))[: len(ring)] == ring
        assert g.undirected == (shape is wide_path_graph)
        assert np.all((10.0**-decades <= g.w) & (g.w <= 10.0**decades)) and strongly_connected(g)
        assert shape(8, 5, decades).arcs == g.arcs and shape(8, 5, 3).arcs != shape(8, 6, 3).arcs
        if shape is wide_holding_cycle:
            assert np.all(g.w[::2] == 1.0)
