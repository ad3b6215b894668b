import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenwalk import families, pipeline
from greenwalk.errors import NumericalError, ValidationError
from greenwalk.generators import random_connected_graph
from greenwalk.graph import WeightedDigraph
from greenwalk.greens import mixing_report
from greenwalk.hitting import hit_time
from greenwalk.spectral import (
    decompose,
    normalized_laplacian,
    spectral_access_from_stationary,
    spectral_greens,
    spectral_hitting,
    spectral_mixing,
)


class TestNormalizedLaplacian:
    def test_single_edge(self):
        L = normalized_laplacian(families.complete_graph(2))
        assert np.allclose(L, [[1, -1], [-1, 1]], atol=1e-15)

    def test_cycle(self):
        L = normalized_laplacian(families.cycle_graph(4))
        assert np.allclose(np.diag(L), 1.0)
        assert L[0, 1] == pytest.approx(-0.5) and L[0, 3] == pytest.approx(-0.5)
        assert L[0, 2] == 0.0

    def test_path(self):
        L = normalized_laplacian(families.path_graph(3))
        assert np.allclose(np.diag(L), 1.0)
        assert L[0, 1] == pytest.approx(-1.0 / np.sqrt(2.0))

    def test_directed_rejected(self):
        g = WeightedDigraph(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
        with pytest.raises(ValidationError):
            normalized_laplacian(g)


class TestEigensystem:
    def test_cycle_spectrum(self):
        dec = decompose(families.cycle_graph(4))
        assert np.allclose(dec.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_complete_graph_spectrum(self):
        dec = decompose(families.complete_graph(3))
        assert np.allclose(dec.eigenvalues, [0.0, 1.5, 1.5], atol=1e-12)

    def test_single_edge_spectrum(self):
        dec = decompose(families.complete_graph(2))
        assert np.allclose(dec.eigenvalues, [0.0, 2.0], atol=1e-13)

    def test_zero_mode_is_root_degrees(self):
        g = random_connected_graph(10, seed=1, weighted=True)
        dec = decompose(g)
        root = np.sqrt(dec.degrees)
        root /= np.linalg.norm(root)
        drift = min(np.abs(dec.eigenvectors[:, 0] - root).max(), np.abs(dec.eigenvectors[:, 0] + root).max())
        assert drift <= 1e-10

    def test_disconnected_detected(self):
        g = WeightedDigraph(4, ((0, 1, 1.0), (2, 3, 1.0)), undirected=True)
        with pytest.raises(NumericalError, match="disconnected"):
            decompose(g)


class TestSpectralRoutes:
    def test_cycle_hitting_entry(self):
        dec = decompose(families.cycle_graph(5))
        assert spectral_hitting(dec)[0, 2] == pytest.approx(6.0, abs=1e-10)

    def test_complete_hitting(self):
        dec = decompose(families.complete_graph(5))
        H = spectral_hitting(dec).values
        assert np.allclose(H, 4.0 * (1.0 - np.eye(5)), atol=1e-10)

    def test_path_hitting_entry(self):
        dec = decompose(families.path_graph(3))
        assert spectral_hitting(dec)[0, 2] == pytest.approx(4.0, abs=1e-10)

    def test_complete_greens_diagonal(self):
        dec = decompose(families.complete_graph(3))
        assert np.allclose(np.diag(spectral_greens(dec).values), 4.0 / 9.0, atol=1e-10)

    def test_cycle_greens_entry(self):
        dec = decompose(families.cycle_graph(4))
        assert spectral_greens(dec)[0, 2] == pytest.approx(-0.375, abs=1e-10)

    def test_path_greens_entry(self):
        dec = decompose(families.path_graph(3))
        assert spectral_greens(dec)[0, 0] == pytest.approx(0.625, abs=1e-10)


class TestSpectralMixing:
    def test_cycle_measures(self):
        g = families.cycle_graph(4)
        sol = pipeline.analyze(g)
        rep = mixing_report(sol)
        t_mix, t_reset, t_hit = spectral_mixing(decompose(g), rep.pessimal)
        assert t_hit == pytest.approx(2.5, abs=1e-10)  # 1 + 1 + 1/2
        assert t_mix == pytest.approx(1.5, abs=1e-10)
        assert t_reset == pytest.approx(rep.t_reset, abs=1e-10)

    def test_complete_hit_time(self):
        g = families.complete_graph(3)
        sol = pipeline.analyze(g)
        rep = mixing_report(sol)
        _, _, t_hit = spectral_mixing(decompose(g), rep.pessimal)
        assert t_hit == pytest.approx(4.0 / 3.0, abs=1e-12)


class TestRouteEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 10**6), weighted=st.booleans())
    def test_spectral_agrees_with_solver(self, n, seed, weighted):
        g = random_connected_graph(n, seed, weighted=weighted)
        sol = pipeline.analyze(g)
        dec = decompose(g)
        scale = max(1.0, np.abs(sol.hitting.values).max())
        assert np.abs(spectral_hitting(dec).values - sol.hitting.values).max() <= 1e-8 * scale
        assert np.abs(spectral_greens(dec).values - sol.greens.values).max() <= 1e-8 * scale
        rep = mixing_report(sol)
        t_mix, t_reset, t_hit = spectral_mixing(dec, rep.pessimal)
        assert abs(t_mix - rep.t_mix) <= 1e-8 * scale
        assert abs(t_reset - rep.t_reset) <= 1e-8 * scale
        assert abs(t_hit - rep.t_hit) <= 1e-8 * scale

    def test_hit_time_three_ways(self):
        g = random_connected_graph(20, seed=9)
        sol = pipeline.analyze(g)
        dec = decompose(g)
        by_spectrum = float((1.0 / dec.eigenvalues[1:]).sum())
        by_trace = float(np.trace(sol.greens.values))
        by_pairs, _ = hit_time(sol.hitting, sol.stationary)
        scale = max(1.0, by_pairs)
        assert abs(by_spectrum - by_trace) <= 1e-8 * scale
        assert abs(by_trace - by_pairs) <= 1e-8 * scale

    def test_diagonal_lemma(self):
        g = random_connected_graph(15, seed=4)
        sol = pipeline.analyze(g)
        hpi = sol.stationary.probs @ sol.hitting.values
        lemma = spectral_access_from_stationary(decompose(g))
        assert np.abs(lemma - hpi).max() <= 1e-8 * max(1.0, hpi.max())
