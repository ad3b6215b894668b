"""The columnar code paths against verbatim copies of the per-element loops they replaced.

Each reference below is the earlier implementation, copied unchanged apart
from its name: the edge-list line loop with the per-arc graph constructor,
the dense-row random walk, and the looped random digraph generator. The
columnar versions must agree with them exactly: the same arcs in the same
order, the same error messages, and the same walk lengths trial by trial.
"""

import math
import warnings
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwalk import families, graph, montecarlo
from greenwalk.errors import ParseError, RunawayError
from greenwalk.generators import random_strongly_connected_digraph
from greenwalk.graph import (
    WeightedDigraph,
    _parse_edge_list,
    _read_arc_columns,
    parse_graph,
    stationary_distribution,
    transition_matrix,
)
from greenwalk.montecarlo import (
    _BUFFER,
    _TrialStreams,
    _cumulative_rows,
    _stats,
    _walk,
    empirical_hitting,
    empirical_random_target,
)

# ---------------------------------------------------------------------------
# edge-list parsing


def _reference_edge_list(text: str):
    arcs = []
    undirected = False
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line[0] == "#":
            if line[1:].strip().lower() == "undirected":
                undirected = True
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'src dst [weight]', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric entry in {raw!r}") from None
        if i < 0 or j < 0:
            raise ParseError(f"line {lineno}: vertex index out of range")
        if not math.isfinite(w):
            raise ParseError(f"line {lineno}: non-finite weight")
        if w < 0:
            raise ParseError(f"line {lineno}: negative weight {w:g}")
        arcs.append((i, j, w))
        top = max(top, i, j)
    if not arcs:
        raise ParseError("no arcs found")
    return top + 1, _reference_store(arcs, undirected), undirected


def _reference_store(arcs, undirected):
    # the per-arc constructor's storage (its checks cannot fail on parsed arcs)
    cleaned = []
    for arc in arcs:
        i, j, w = int(arc[0]), int(arc[1]), float(arc[2])
        cleaned.append((i, j, w))
        if undirected and i != j:
            cleaned.append((j, i, w))
    return tuple(cleaned)


def _outcome(parse, text):
    try:
        n, arcs, undirected = parse(text)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return ("error", type(exc), str(exc))
    # repr tells 0.0 from -0.0 and an int from an integral float
    return ("graph", repr(n), repr(arcs), undirected)


def _columnar(text):
    g = _parse_edge_list(text)
    return g.n, g.arcs, g.undirected


def _long_decimal():
    digits = st.text("0123456789", min_size=1, max_size=30)
    exponent = st.one_of(st.just(""), st.integers(-330, 310).map(lambda e: f"e{e}"))
    return st.builds(lambda a, b, e: f"{a}.{b}{e}", digits, digits, exponent)


INDEX = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(-3, 12).map(str),
    st.sampled_from(["+3", "-0", "007", "1_0", "1.0", "1e1", "x", "٣", "9223372036854775807", "99999999999999999999"]),
)
WEIGHT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(0.0, 10.0).map(repr),
    _long_decimal(),
    st.sampled_from(["1", "-1", "0", "-0", ".5", "5.", "1e500", "-1e-400", "1_0.5", "inf", "nan", "0x1p3", "1e", "٣"]),
)
SPACE = st.sampled_from([" ", "  ", "\t", " \t "])
PAD = st.sampled_from(["", " ", "\t"])


@st.composite
def arc_line(draw):
    tokens = [draw(INDEX), draw(INDEX)]
    if draw(st.integers(0, 3)):
        tokens.append(draw(WEIGHT))
    line = tokens[0]
    for token in tokens[1:]:
        line += draw(SPACE) + token
    return draw(PAD) + line + draw(PAD)


OTHER_LINE = st.sampled_from([
    "", "   ", "\t", "#", "# a comment", "  # undirected", "#UNDIRECTED ", "# undirected", "# not undirected",
    "0 1 1 # inline", "0 1 #", "3", "0 1 2 3", "0 1 2 3 4", "0 1\x0c2", "0 1 2 ",
])
BREAK = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def edge_list(draw):
    lines = draw(st.lists(st.one_of(arc_line(), arc_line(), OTHER_LINE), min_size=0, max_size=12))
    text = ""
    for line in lines:
        text += line + draw(BREAK)
    if draw(st.booleans()) and text:
        text = text[:-1]  # no final line break
    return text


# comment lines that numpy's reader skips itself: none of them needs the line loop
COMMENTED = [
    "# generated by hand\n0 1 2\n1 0 1\n",
    "0 1 2\n  \t# indented\n1 0 1\n",
    "#\n0 1\n1 0\n",
    "0 1 0.5\n1 2 2\n# undirected\n",
    "# crlf comment\r\n0 1 2\r\n1 0 1\r\n",
]


class TestEdgeListParser:
    @settings(max_examples=600, deadline=None)
    @given(text=edge_list())
    def test_matches_line_loop(self, text):
        assert _outcome(_columnar, text) == _outcome(_reference_edge_list, text)

    @settings(max_examples=300, deadline=None)
    @given(
        arcs=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30), st.floats(0.0, 1e12)), min_size=1, max_size=30
        ),
        undirected=st.booleans(),
        crlf=st.booleans(),
    )
    def test_plain_files_match_line_loop(self, arcs, undirected, crlf):
        # files as the writers in this repository produce them: every one is read by the C reader
        lines = ["# generated"] + (["# undirected"] if undirected else [])
        lines += [f"{i} {j} {w!r}" for i, j, w in arcs]
        text = ("\r\n" if crlf else "\n").join(lines) + "\n"
        assert _read_arc_columns(text) is not None
        assert _outcome(_columnar, text) == _outcome(_reference_edge_list, text)

    @settings(max_examples=300, deadline=None)
    @given(token=st.one_of(_long_decimal(), st.floats(0.0, allow_infinity=False).map(repr)))
    def test_weights_round_as_float(self, token):
        # numpy's reader and float() both round decimal strings correctly
        text = f"0 1 {token}\n1 0 1\n"
        if math.isfinite(float(token)):
            assert _parse_edge_list(text).arcs[0] == (0, 1, float(token))

    @pytest.mark.parametrize(
        "text",
        [
            "0 1 2 # trailing comment\n1 0 1\n",
            "0 1 #\n",
            "0 1 1_0\n1 0 1\n",
            "0 1.7 2\n1 0\n",
            "0 1e1 2\n1 0\n",
            "0 ٣\n٣ 0\n",
            "0 1 2\n1 0\n",
            "0 1\x0c2 3\n",
            "# undirected\n\n  0 1 0.5\r\n1 2 -0\r\n",
            "0 99999999999999999999 1\n",
            "-1 0 1\n",
            "0 1 nan\n",
            "0 1 -2.5\n",
            "# only comments\n",
            "",
            *COMMENTED,
            "##undirected\n0 1\n1 0\n",
            "# UNDIRECTED\n0 1\n1 2\n",
        ],
    )
    def test_examples_match_line_loop(self, text):
        assert _outcome(_columnar, text) == _outcome(_reference_edge_list, text)

    @pytest.mark.parametrize("text", COMMENTED)
    def test_commented_files_take_the_reader(self, text, monkeypatch):
        monkeypatch.setattr(graph, "_parse_edge_list_lines", lambda _: pytest.fail("the line loop ran"))
        g = parse_graph(text)
        assert ("graph", repr(g.n), repr(g.arcs), g.undirected) == _outcome(_reference_edge_list, text)

    def test_reader_deprecation_goes_to_line_loop(self, monkeypatch):
        # numpy 1.23 and later releases read "1.7" in an integer field as 1,
        # with only a DeprecationWarning until the deprecation expired
        loadtxt = np.loadtxt

        def warning_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        text = "0 1 2\n1 0 1\n"
        assert _read_arc_columns(text) is None
        assert _outcome(_columnar, text) == _outcome(_reference_edge_list, text)

    def test_inline_comment_is_rejected(self):
        with pytest.raises(ParseError, match="line 1: expected 'src dst \\[weight\\]'"):
            _parse_edge_list("0 1 2 # trailing comment\n1 0 1\n")


# ---------------------------------------------------------------------------
# random walks


def _reference_cumulative_rows(P):
    cum = np.cumsum(P.probs, axis=1)
    # from each row's last arc on the entries are exactly 1: a running sum that
    # rounds short of 1 would otherwise let bisect_right step past the last arc
    last_arc = P.n - 1 - np.argmax(P.probs[:, ::-1] > 0, axis=1)
    cum[np.arange(P.n) >= last_arc[:, None]] = 1.0
    return [row.tolist() for row in cum]


def _reference_walk(cum_rows, start: int, stop: int, rng: np.random.Generator, max_steps: int) -> int:
    if start == stop:
        return 0
    v = start
    steps = 0
    buf: list[float] = []
    ptr = 0
    while True:
        if ptr >= len(buf):
            buf = rng.random(_BUFFER).tolist()
            ptr = 0
        v = bisect_right(cum_rows[v], buf[ptr])
        ptr += 1
        steps += 1
        if v == stop:
            return steps
        if steps >= max_steps:
            raise RunawayError(f"walk exceeded {max_steps} steps without reaching {stop}")


def _trial_outcomes(walk, rows, streams, trials, start, stop, max_steps, cum_pi=None):
    out = []
    for t in range(trials):
        rng = streams.trial(t)
        target = stop if cum_pi is None else bisect_right(cum_pi, float(rng.random()))
        try:
            out.append(walk(rows, start, target, rng, max_steps))
        except RunawayError as exc:
            out.append(str(exc))
    return out


WALK_GRAPHS = {
    "digraph": random_strongly_connected_digraph(12, 4),
    "sparse-digraph": random_strongly_connected_digraph(40, 9, extra=0.02),
    "cycle": families.cycle_graph(6),
    "complete": families.complete_graph(5),
    "parallel-and-zero-arcs": WeightedDigraph(
        4, ((0, 1, 0.3), (0, 1, 0.4), (0, 3, 0.0), (1, 2, 1.0), (2, 3, 2.0), (2, 0, 0.1), (3, 0, 1.0), (3, 2, 0.0))
    ),
}


class TestWalks:
    @pytest.mark.parametrize("name", sorted(WALK_GRAPHS))
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("max_steps", [1, 127, 128, 129, 255, 256, 257, 10**9])
    def test_trials_match_dense_walk(self, name, beta, max_steps, monkeypatch):
        P = transition_matrix(WALK_GRAPHS[name], beta)
        pi = stationary_distribution(P)
        cum_pi = np.cumsum(pi.probs)
        cum_pi[-1] = 1.0
        cum_pi = cum_pi.tolist()
        rows, dense = _cumulative_rows(P), _reference_cumulative_rows(P)
        trials = 60
        monkeypatch.setattr(montecarlo, "STEP_CAP", max_steps)
        for seed in (0, 7, 2**40 + 3):
            streams = _TrialStreams(seed)
            start, stop = seed % P.n, (seed + 2) % P.n
            for target in (None, cum_pi):
                new = _trial_outcomes(_walk, rows, streams, trials, start, stop, max_steps, target)
                ref = _trial_outcomes(_reference_walk, dense, streams, trials, start, stop, max_steps, target)
                assert new == ref, (name, beta, max_steps, seed, target is None)
                if all(isinstance(c, int) for c in ref):
                    counts = np.array(ref, dtype=np.int64)
                    if target is None:
                        got = empirical_hitting(P, start, stop, trials, seed)
                    else:
                        got = empirical_random_target(P, pi, start, trials, seed)
                    assert got == _stats(counts, seed)
                else:
                    message = next(c for c in ref if isinstance(c, str))
                    with pytest.raises(RunawayError) as err:
                        if target is None:
                            empirical_hitting(P, start, stop, trials, seed)
                        else:
                            empirical_random_target(P, pi, start, trials, seed)
                    assert str(err.value) == message


# ---------------------------------------------------------------------------
# random digraphs


def _reference_weight(rng, weighted: bool) -> float:
    return float(rng.uniform(0.5, 1.5)) if weighted else 1.0


def _reference_digraph_arcs(n: int, seed: int, extra: float = 0.25, weighted: bool = True):
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    arcs = []
    for a, b in zip(order, np.roll(order, -1)):
        arcs.append((int(a), int(b), _reference_weight(rng, weighted)))
    mask = rng.random((n, n)) < extra
    for i in range(n):
        for j in range(n):
            if i != j and mask[i, j]:
                arcs.append((i, j, _reference_weight(rng, weighted)))
    return tuple(arcs)


class TestRandomDigraph:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
    @pytest.mark.parametrize("extra", [0.0, 0.02, 0.25, 1.0])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_same_arcs_in_same_order(self, n, extra, weighted):
        for seed in (0, 1, 611, 2**31 - 1):
            g = random_strongly_connected_digraph(n, seed, extra=extra, weighted=weighted)
            assert repr(g.arcs) == repr(_reference_digraph_arcs(n, seed, extra, weighted)), seed
