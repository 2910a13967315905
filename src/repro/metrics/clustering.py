"""Clustering quality metrics for the K-means experiment.

The paper's accuracy metric is the *success rate*: the proportion of points
assigned to the correct cluster.  Because cluster labels are arbitrary, the
approximate clustering's labels are first matched to the reference labels by
an exact maximum-weight assignment on the label co-occurrence matrix (the
Hungarian method).  Every maximum-weight assignment has the same total
weight, and the success rate is that weight over the point count, so the
rate does not depend on which optimal assignment is found.
"""
from __future__ import annotations

from typing import Optional

import numpy as np


def confusion_matrix(reference_labels: np.ndarray, labels: np.ndarray,
                     clusters: Optional[int] = None) -> np.ndarray:
    """Co-occurrence counts between reference and candidate labels.

    Raises ``ValueError`` when a label is negative or not below
    ``clusters``.
    """
    ref = np.asarray(reference_labels, dtype=np.int64)
    cand = np.asarray(labels, dtype=np.int64)
    if ref.shape != cand.shape:
        raise ValueError("label arrays must have the same shape")
    if clusters is None:
        clusters = int(max(ref.max(initial=0), cand.max(initial=0))) + 1
    for name, values in (("reference label", ref), ("label", cand)):
        bad = values[(values < 0) | (values >= clusters)]
        if bad.size:
            raise ValueError(f"{name} {int(bad[0])} is outside "
                             f"[0, clusters={clusters})")
    matrix = np.zeros((clusters, clusters), dtype=np.int64)
    np.add.at(matrix, (ref, cand), 1)
    return matrix


def _max_weight_assignment(matrix: np.ndarray) -> np.ndarray:
    """Exact maximum-weight perfect matching of a square integer matrix.

    The Hungarian method (Kuhn 1955) with shortest augmenting paths and
    row/column potentials, O(k^3) in exact integer arithmetic.  Returns
    ``owner`` with ``owner[col]`` the row matched to column ``col``, so
    ``matrix[owner, arange(k)].sum()`` is the maximum total weight.
    """
    weights = np.asarray(matrix, dtype=np.int64)
    k = weights.shape[0]
    # Minimise cost = -weight.  Index 0 is the virtual row/column that
    # starts each augmenting path; rows and columns are 1-based below.
    cost = (-weights).tolist()
    row_potential = [0] * (k + 1)
    col_potential = [0] * (k + 1)
    owner = [0] * (k + 1)          # owner[col] = row matched to col (0: none)
    via = [0] * (k + 1)            # previous column on the shortest path
    for row in range(1, k + 1):
        owner[0] = row
        col = 0
        slack = [None] * (k + 1)   # reduced cost of the best path to col
        done = [False] * (k + 1)
        while owner[col]:
            done[col] = True
            current = owner[col]
            costs = cost[current - 1]
            base = row_potential[current]
            delta = None
            step = 0
            for j in range(1, k + 1):
                if done[j]:
                    continue
                reduced = costs[j - 1] - base - col_potential[j]
                if slack[j] is None or reduced < slack[j]:
                    slack[j] = reduced
                    via[j] = col
                if delta is None or slack[j] < delta:
                    delta = slack[j]
                    step = j
            for j in range(k + 1):
                if done[j]:
                    row_potential[owner[j]] += delta
                    col_potential[j] -= delta
                else:
                    slack[j] -= delta
            col = step
        while col:
            previous = via[col]
            owner[col] = owner[previous]
            col = previous
    return np.asarray(owner[1:], dtype=np.int64) - 1


def match_labels(reference_labels: np.ndarray, labels: np.ndarray,
                 clusters: Optional[int] = None) -> np.ndarray:
    """Relabel ``labels`` to best match ``reference_labels``."""
    matrix = confusion_matrix(reference_labels, labels, clusters)
    return _max_weight_assignment(matrix)[np.asarray(labels, dtype=np.int64)]


def success_rate(reference_labels: np.ndarray, labels: np.ndarray,
                 clusters: Optional[int] = None,
                 already_matched: bool = False) -> float:
    """Fraction of points assigned to the correct (matched) cluster."""
    ref = np.asarray(reference_labels, dtype=np.int64)
    cand = np.asarray(labels, dtype=np.int64)
    if not already_matched:
        cand = match_labels(ref, cand, clusters)
    if ref.size == 0:
        raise ValueError("label arrays are empty")
    return float(np.mean(ref == cand))
