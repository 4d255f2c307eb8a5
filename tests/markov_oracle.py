"""The Markov oracle for horseshoe certificates: the entropy of a PL map's
covering matrix, which a passing certificate's log(k)/m may not exceed.
Shared by `test_chains.py` and acceptance criterion 7."""

from __future__ import annotations

import math

from pseudosusp.cantor import spectral_radius


def lap_pieces(g):
    """(domain, image) per linear piece between consecutive breakpoints."""
    return [((x0, x1), (min(y0, y1), max(y0, y1)))
            for (x0, y0), (x1, y1) in zip(g, g[1:])]


def transition_matrix(g) -> list[list[int]]:
    """0/1 covering matrix of the linear pieces: A[i][j] = 1 iff the image of
    piece i contains piece j.  Degenerate (constant) pieces cover nothing."""
    pieces = lap_pieces(g)
    a = [[0] * len(pieces) for _ in pieces]
    for i, (_, (ilo, ihi)) in enumerate(pieces):
        if ilo == ihi:
            continue
        for j, ((dlo, dhi), _) in enumerate(pieces):
            if ilo <= dlo and dhi <= ihi:
                a[i][j] = 1
    return a


def transition_entropy(g) -> float:
    """log of the spectral radius of the covering matrix."""
    sigma = spectral_radius(transition_matrix(g))
    if sigma <= 1.0:
        return 0.0
    return math.log(sigma)
