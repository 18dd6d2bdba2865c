"""Shared brute-force oracles, written independently of the package's
sum-product core so the two can disagree."""

from itertools import product

import numpy as np


def brute_hom_count(motif, target) -> int:
    """Count edge-preserving maps by trying every vertex assignment."""
    count = 0
    for assign in product(range(target.n), repeat=motif.n):
        if all(target.has_edge(assign[u], assign[v]) for u, v in motif.edges):
            count += 1
    return count


# maps a graphon oracle enumerates at most.  The largest call in the suite
# enumerates 3^9; a motif of many more vertices, such as an expanded
# doubling (48 vertices for K_5 at k = 4), would run for hours, so it is
# refused before the first map
BRUTE_MAPS_CAP = 3**12


def _check_maps(motif, m: int) -> None:
    if m**motif.n > BRUTE_MAPS_CAP:
        raise ValueError(f"{m}^{motif.n} maps exceed the brute-force cap of 3^12")


def brute_graphon_density(motif, weights, values) -> float:
    """Sum over all maps of weight products times edge value products.

    The sums start from the integers 0 and 1, so Fraction inputs give an
    exact Fraction and float inputs the same floats as from 0.0 and 1.0."""
    m = len(weights)
    _check_maps(motif, m)
    total = 0
    for assign in product(range(m), repeat=motif.n):
        term = 1
        for x in assign:
            term *= weights[x]
        for u, v in motif.edges:
            term *= values[assign[u]][assign[v]]
        total += term
    return total


def brute_subset_deviation(g, p):
    """Max over all vertex subsets of |e(U) - p*binom(|U|,2)| / n^2, with
    the lexicographically smallest maximizing vertex tuple.

    The deviation is evaluated in the library's operation order, so the
    two agree bit for bit and ties are ties in both."""
    best = -1.0
    best_subset = ()
    for mask in range(1 << g.n):
        subset = tuple(v for v in range(g.n) if mask >> v & 1)
        inside = set(subset)
        e = sum(1 for u, v in g.edges if u in inside and v in inside)
        u = len(subset)
        dev = abs(e - p * u * (u - 1) / 2) / g.n**2
        if dev > best or (dev == best and subset < best_subset):
            best, best_subset = dev, subset
    return best, best_subset


def brute_cut_distance(weights, values, p) -> float:
    """Max over subset pairs (S, T) of |sum over S x T of w_a w_b (V - p)|."""
    m = len(weights)
    wd = np.outer(weights, weights) * (np.asarray(values) - p)
    best = 0.0
    for smask in range(1 << m):
        rows = [a for a in range(m) if smask >> a & 1]
        for tmask in range(1 << m):
            cols = [b for b in range(m) if tmask >> b & 1]
            val = abs(sum(wd[a, b] for a in rows for b in cols))
            best = max(best, val)
    return best


def brute_graphon_density_gradient(motif, weights, values):
    """Derivative of brute_graphon_density in each symmetric value parameter.

    Every map contributes, for each edge, the product of all its other
    factors to the parameter of the edge's (unordered) pair of parts.
    """
    m = len(weights)
    _check_maps(motif, m)
    grad = np.zeros((m, m))
    for assign in product(range(m), repeat=motif.n):
        weight = 1.0
        for x in assign:
            weight *= weights[x]
        factors = [values[assign[u]][assign[v]] for u, v in motif.edges]
        for i, (u, v) in enumerate(motif.edges):
            term = weight
            for j, f in enumerate(factors):
                if j != i:
                    term *= f
            a, b = sorted((assign[u], assign[v]))
            grad[a, b] += term
    return grad + np.triu(grad, 1).T
