"""Eigensystem of the symmetric normalized Laplacian and the spectral route to H, G, and the mixing measures."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import NumericalError, ValidationError
from .graph import Distribution, WeightedDigraph, validate_out_degrees
from .greens import GreensMatrix
from .hitting import HittingTimeMatrix

ZERO_MODE_TOL = 1e-10
ORTHO_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
SYMMETRY_TOL = 1e-12


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
    L = np.eye(g.n) - g.weights / np.sqrt(np.outer(d, d))
    asym = float(np.abs(L - L.T).max())
    if asym > SYMMETRY_TOL:
        raise NumericalError(f"normalized Laplacian asymmetry {asym:.3e}")
    return (L + L.T) / 2.0


def eigensystem(matrix: np.ndarray, degrees: np.ndarray, volume: float) -> SpectralDecomposition:
    """Ascending eigendecomposition with zero-mode and basis checks.

    Exactly one eigenvalue may fall below the zero threshold; more than one
    means the graph is disconnected. Orthonormality and reconstruction are
    verified before anything downstream trusts the basis.
    """
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValidationError("matrix must be square")
    if float(np.abs(M - M.T).max()) > SYMMETRY_TOL:
        raise ValidationError("matrix must be symmetric")
    try:
        lam, phi = scipy.linalg.eigh(M)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from None
    zero_modes = int(np.count_nonzero(lam < ZERO_MODE_TOL))
    if zero_modes == 0:
        raise NumericalError(f"no zero eigenvalue found (smallest {lam[0]:.3e})")
    if zero_modes > 1:
        raise NumericalError("graph disconnected: repeated zero eigenvalue")
    n = lam.size
    ortho = float(np.abs(phi.T @ phi - np.eye(n)).max())
    if ortho > ORTHO_TOL:
        raise NumericalError(f"eigenbasis orthonormality residual {ortho:.3e}")
    recon = float(np.abs((phi * lam[None, :]) @ phi.T - M).max())
    if recon > RECONSTRUCTION_TOL:
        raise NumericalError(f"eigenbasis reconstruction residual {recon:.3e}")
    d = np.asarray(degrees, dtype=float)
    root = np.sqrt(d)
    root /= np.linalg.norm(root)
    drift = min(float(np.abs(phi[:, 0] - root).max()), float(np.abs(phi[:, 0] + root).max()))
    if drift > 1e-8:
        raise NumericalError(f"zero mode is not proportional to sqrt(deg), drift {drift:.3e}")
    return SpectralDecomposition(lam, phi, d, float(volume))


def decompose(g: WeightedDigraph) -> SpectralDecomposition:
    """Build and decompose the normalized Laplacian of ``g`` in one call."""
    return eigensystem(normalized_laplacian(g), g.degrees, g.volume)


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
