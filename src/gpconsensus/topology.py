"""Communication graph construction and validation.

Graphs are undirected, unweighted, and time-invariant. Agent indices are
1-based at the interface (edge lists in configs) and 0-based internally;
this module is the boundary where the conversion happens.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import DisconnectedGraph, InvalidEdge, InvalidParam


@dataclass(frozen=True)
class Topology:
    """Validated communication graph.

    Fields use 0-based agent indices. ``edges`` holds canonical (i, j)
    pairs with i < j. ``laplacian`` is a dense N x N array built from
    integer degrees, so its row sums are exactly zero. ``gather`` has one
    row per neighbor slot: ``gather[s, i]`` is agent i's s-th neighbor
    in ``neighbors`` order, or i itself once s reaches i's degree. Both
    arrays derive from ``edges``, so equality and hashing skip them.
    """

    n_agents: int
    edges: tuple[tuple[int, int], ...]
    laplacian: NDArray[np.float64] = field(repr=False, compare=False)
    neighbors: tuple[tuple[int, ...], ...]
    gather: NDArray[np.intp] = field(repr=False, compare=False)


def build_topology(n_agents: int, edges) -> Topology:
    """Validate a 1-based edge list and return the graph with its Laplacian.

    Raises InvalidParam for n_agents < 1, InvalidEdge for self-loops,
    duplicates, or out-of-range endpoints, and DisconnectedGraph when the
    graph does not connect all agents.
    """
    if not isinstance(n_agents, (int, np.integer)) or isinstance(n_agents, bool):
        raise InvalidParam(f"n_agents must be an integer, got {n_agents!r}")
    if n_agents < 1:
        raise InvalidParam(f"n_agents must be >= 1, got {n_agents}")
    n = int(n_agents)

    canon: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        i, j = edge
        i, j = int(i), int(j)
        if not (1 <= i <= n and 1 <= j <= n):
            raise InvalidEdge(f"edge ({i},{j}) out of range for {n} agents")
        if i == j:
            raise InvalidEdge(f"self-loop ({i},{j}) not allowed")
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in seen:
            raise InvalidEdge(f"duplicate edge ({i},{j})")
        seen.add(key)
        canon.append(key)
    canon.sort()

    adjacency_int = np.zeros((n, n), dtype=np.int64)
    for i, j in canon:
        adjacency_int[i, j] = 1
        adjacency_int[j, i] = 1

    # integer arithmetic keeps Laplacian row sums exactly zero
    degrees = adjacency_int.sum(axis=1)
    laplacian_int = np.diag(degrees) - adjacency_int

    neighbors = tuple(
        tuple(int(j) for j in np.flatnonzero(adjacency_int[i])) for i in range(n)
    )

    _check_connected(n, neighbors)

    max_degree = int(degrees.max())
    gather = np.array(
        [
            [nb[s] if s < len(nb) else i for i, nb in enumerate(neighbors)]
            for s in range(max_degree)
        ],
        dtype=np.intp,
    ).reshape(max_degree, n)

    return Topology(
        n_agents=n,
        edges=tuple(canon),
        laplacian=laplacian_int.astype(np.float64),
        neighbors=neighbors,
        gather=gather,
    )


def _check_connected(n: int, neighbors: tuple[tuple[int, ...], ...]) -> None:
    """Breadth-first search from agent 0; all agents must be reachable."""
    visited = [False] * n
    visited[0] = True
    queue = deque([0])
    count = 1
    while queue:
        i = queue.popleft()
        for j in neighbors[i]:
            if not visited[j]:
                visited[j] = True
                count += 1
                queue.append(j)
    if count != n:
        missing = [k + 1 for k, v in enumerate(visited) if not v]
        raise DisconnectedGraph(f"agents {missing} unreachable from agent 1")
