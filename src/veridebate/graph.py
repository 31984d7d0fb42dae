"""Fixed debate-graph construction.

Every turn is a node; edges are predefined from the debate structure:
a self-loop per node, both directions of each sequential adjacency, and
both directions of each explicit turn reference. ``edges_for_log`` keeps
them as a directed list with multiplicity (a reference that coincides
with a sequential link appears twice), which keeps the edge count at the
closed form ``n + 2(n-1) + 2*total_targets``. The classifier reads the
graph only as a boolean ``(n, n)`` matrix with ``mask[i, j]`` set when j
is an in-neighbor of i: ``log_mask`` builds it from the turns directly,
and equals ``adjacency_mask(edges_for_log(log), n)``.
"""

from __future__ import annotations

import numpy as np

from .domain import DebateLog


def edges_for_log(log: DebateLog) -> tuple[tuple[int, int], ...]:
    n = len(log.turns)
    edges: list[tuple[int, int]] = [(i, i) for i in range(n)]
    for i in range(n - 1):
        edges.append((i, i + 1))
        edges.append((i + 1, i))
    for turn in log.turns:
        for target in turn.targets:
            edges.append((turn.turn_index, target))
            edges.append((target, turn.turn_index))
    return tuple(edges)


def adjacency_mask(edges, num_nodes: int) -> np.ndarray:
    """Boolean ``(num_nodes, num_nodes)`` in-neighbor mask of directed
    ``(src, dst)`` edges: ``mask[dst, src]`` is set for each edge."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    mask = np.zeros((num_nodes, num_nodes), dtype=bool)
    mask[edges[:, 1], edges[:, 0]] = True
    return mask


def log_mask(log: DebateLog) -> np.ndarray:
    """The in-neighbor mask of ``log``'s graph, set cell by flat index
    without an edge list; each target must index an earlier turn."""
    n = len(log.turns)
    # Self-loops, then both directions of each sequential link.
    cells = [*range(0, n * n, n + 1), *range(1, n * n, n + 1), *range(n, n * n, n + 1)]
    for turn in log.turns:
        for target in turn.targets:
            cells += (turn.turn_index * n + target, target * n + turn.turn_index)
    mask = np.zeros((n, n), dtype=bool)
    mask.ravel()[cells] = True
    return mask
