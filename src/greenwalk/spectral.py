"""Eigensystem of the symmetric normalized Laplacian and the spectral route to H, G, and the mixing measures."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerance
from .errors import NumericalError, ValidationError, require
from .graph import Distribution, WeightedDigraph, validate_out_degrees
from .greens import GreensMatrix
from .hitting import HittingTimeMatrix


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigensystem of I - D^{-1/2} W D^{-1/2} with graph data attached.

    Eigenvectors are orthonormal columns; the zero mode is proportional to
    sqrt(deg). Degrees and volume ride along because every downstream
    formula needs them.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degrees: np.ndarray
    volume: float

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    @cached_property
    def _inverse_pool(self) -> np.ndarray:
        # M_ij = sum_{k >= 1} phi_ki phi_kj / lambda_k; the zero mode is excluded
        lam = self.eigenvalues[1:]
        phi = self.eigenvectors[:, 1:]
        return (phi / lam[None, :]) @ phi.T


def normalized_laplacian(g: WeightedDigraph) -> np.ndarray:
    """The symmetric operator I - D^{-1/2} W D^{-1/2} of an undirected graph."""
    if not g.undirected:
        raise ValidationError("spectral formulas require an undirected graph")
    validate_out_degrees(g)
    d = g.degrees
    root = np.outer(d, d)
    L = g.weights
    L /= np.sqrt(root, out=root)
    del root
    # I minus the quotient, as graph.walk_laplacian builds I - P: bit for bit np.eye(n) minus it
    np.subtract(0.0, L, out=L)
    L.flat[:: g.n + 1] += 1.0
    return L


def decompose(g: WeightedDigraph) -> SpectralDecomposition:
    """Ascending eigendecomposition of the normalized Laplacian of ``g``, with zero-mode and basis checks.

    Exactly one eigenvalue may fall below the zero threshold; more than one
    means the graph is disconnected. Orthonormality and reconstruction are
    verified before anything downstream trusts the basis.
    """
    L = normalized_laplacian(g)
    n = g.n
    limit = tolerance.bound(n, 1.0, tolerance.RESIDUAL)
    try:
        lam, phi = np.linalg.eigh(L)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from None
    zero_modes = int(np.count_nonzero(lam < limit))
    if zero_modes == 0:
        raise NumericalError(f"no zero eigenvalue found (smallest {lam[0]:.3e})")
    if zero_modes > 1:
        raise NumericalError("graph disconnected: repeated zero eigenvalue")
    # the eigenvectors' orthogonality degrades with clustered eigenvalues: it carries their conditioning
    orthonormality = tolerance.gap(phi.T @ phi, np.eye(n))
    require("eigen_orthonormality", orthonormality, tolerance.bound(n, 1.0, tolerance.ROUTE), NumericalError)
    require("eigen_reconstruction", tolerance.gap((phi * lam[None, :]) @ phi.T, L), limit, NumericalError)
    root = np.sqrt(g.degrees)
    root /= np.linalg.norm(root)
    drift = min(tolerance.gap(phi[:, 0], root), tolerance.gap(phi[:, 0], -root))
    gap = lam[1] if n > 1 else 1.0  # an eigenvector's error grows as 1 / (distance to the next eigenvalue)
    require("zero_mode_drift", drift, tolerance.bound(n, 1.0 / gap, tolerance.RESIDUAL), NumericalError)
    lam.setflags(write=False)
    phi.setflags(write=False)
    return SpectralDecomposition(lam, phi, g.degrees, g.volume)


def spectral_hitting(dec: SpectralDecomposition) -> HittingTimeMatrix:
    """Hitting times from the eigensystem alone.

    H(i, j) = vol * sum_{k>=1} (phi_kj^2 / deg(j)
              - phi_ki phi_kj / sqrt(deg(i) deg(j))) / lambda_k.
    """
    M = dec._inverse_pool
    d = dec.degrees
    H = dec.volume * (np.diag(M)[None, :] / d[None, :] - M / np.sqrt(np.outer(d, d)))
    np.fill_diagonal(H, 0.0)
    return HittingTimeMatrix(H)


def spectral_greens(dec: SpectralDecomposition) -> GreensMatrix:
    """Green's function from the eigensystem alone.

    G(i, j) = sqrt(deg(j) / deg(i)) * sum_{k>=1} phi_ki phi_kj / lambda_k.
    """
    M = dec._inverse_pool
    root = np.sqrt(dec.degrees)
    values = (root[None, :] / root[:, None]) * M
    return GreensMatrix(values, target=Distribution(dec.degrees / dec.volume))


def spectral_access_from_stationary(dec: SpectralDecomposition) -> np.ndarray:
    """H(pi, j) for every j, read off the diagonal spectral sums."""
    M = dec._inverse_pool
    return dec.volume / dec.degrees * np.diag(M)


def spectral_mixing(dec: SpectralDecomposition, pessimal: np.ndarray) -> tuple[float, float, float]:
    """(T_mix, T_reset, T_hit) from the eigensystem and a pessimal-vertex map.

    ``pessimal`` maps each vertex i to a vertex maximizing H(., i); the
    worst-start and average mixing formulas need it, while
    T_hit = sum_{k>=1} 1 / lambda_k does not.
    """
    M = dec._inverse_pool
    d = dec.degrees
    ip = np.asarray(pessimal, dtype=int)
    vals = M[np.arange(dec.n), ip]
    per_vertex = -dec.volume / np.sqrt(d * d[ip]) * vals
    t_mix = float(per_vertex.max())
    t_reset = float(-(np.sqrt(d / d[ip]) * vals).sum())
    t_hit = float((1.0 / dec.eigenvalues[1:]).sum())
    return t_mix, t_reset, t_hit
