"""Graph construction, validation, and spectral facts."""

import dataclasses

import numpy as np
import pytest

from gpconsensus.engine import prepare_run
from gpconsensus.errors import DisconnectedGraph, InvalidEdge, InvalidParam
from gpconsensus.presets import case_preset
from gpconsensus.rng import SplitMix64
from gpconsensus.topology import Topology, build_topology

EIG_TOL = 1e-9

RING4_EDGES = [(1, 2), (2, 3), (3, 4), (4, 1)]


def degrees(top: Topology) -> tuple[int, ...]:
    return tuple(len(nb) for nb in top.neighbors)


def adjacency(top: Topology) -> np.ndarray:
    """0/1 adjacency matrix from the neighbor lists."""
    adj = np.zeros((top.n_agents, top.n_agents))
    for i, nb in enumerate(top.neighbors):
        adj[i, list(nb)] = 1.0
    return adj


class TestBuildTopology:
    def test_ring4_degrees_all_two(self):
        top = build_topology(4, RING4_EDGES)
        assert degrees(top) == (2, 2, 2, 2)

    def test_ring4_edges_canonical_zero_based(self):
        top = build_topology(4, RING4_EDGES)
        assert top.edges == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_ring4_neighbors(self):
        top = build_topology(4, RING4_EDGES)
        assert top.neighbors == ((1, 3), (0, 2), (1, 3), (0, 2))

    def test_adjacency_symmetric_zero_diagonal(self):
        top = build_topology(4, RING4_EDGES)
        adj = adjacency(top)
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0.0)

    def test_laplacian_structure(self):
        top = build_topology(4, RING4_EDGES)
        lap = top.laplacian
        assert np.array_equal(np.diag(lap), np.array(degrees(top), dtype=float))
        off = lap - np.diag(np.diag(lap))
        assert np.array_equal(off, -adjacency(top))

    def test_laplacian_row_sums_exactly_zero(self):
        top = build_topology(4, RING4_EDGES)
        assert np.max(np.abs(top.laplacian.sum(axis=1))) == 0.0

    def test_single_node(self):
        top = build_topology(1, [])
        assert top.laplacian.shape == (1, 1)
        assert top.laplacian[0, 0] == 0.0
        assert top.neighbors == ((),)
        assert top.gather.shape == (0, 1)

    def test_gather_pads_with_own_index(self):
        # path 1-2-3 plus 2-4: agent 1 (0-based) has three neighbors,
        # the others one each, padded with their own index
        top = build_topology(4, [(1, 2), (2, 3), (2, 4)])
        assert top.gather.tolist() == [[1, 0, 1, 1], [0, 2, 2, 3], [0, 3, 2, 3]]

    def test_disconnected_two_components(self):
        with pytest.raises(DisconnectedGraph):
            build_topology(4, [(1, 2), (3, 4)])

    def test_isolated_node(self):
        with pytest.raises(DisconnectedGraph):
            build_topology(3, [(1, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidEdge):
            build_topology(3, [(1, 1), (1, 2), (2, 3)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InvalidEdge):
            build_topology(3, [(1, 2), (2, 3), (2, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidEdge):
            build_topology(3, [(1, 2), (2, 3), (3, 4)])
        with pytest.raises(InvalidEdge):
            build_topology(3, [(0, 1), (1, 2), (2, 3)])

    def test_bad_agent_count(self):
        with pytest.raises(InvalidParam):
            build_topology(0, [])
        with pytest.raises(InvalidParam):
            build_topology(-2, [])

    def test_immutable(self):
        top = build_topology(2, [(1, 2)])
        with pytest.raises(AttributeError):
            top.n_agents = 5

    def test_equality_and_hash_use_the_edge_list(self):
        ring = build_topology(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        same = build_topology(4, [(4, 1), (3, 2), (1, 2), (3, 4)])
        path = build_topology(4, [(1, 2), (2, 3), (3, 4)])
        assert build_topology(2, [(1, 2)]) == build_topology(2, [(1, 2)])
        assert ring == same and hash(ring) == hash(same)
        assert ring != path
        assert len({ring, same, path}) == 2

    def test_run_context_equality_does_not_raise(self):
        run = prepare_run(case_preset("d"))
        rebuilt = dataclasses.replace(run, topology=build_topology(4, run.config.edges))
        assert rebuilt.topology is not run.topology
        assert rebuilt == run
        other = dataclasses.replace(run, topology=build_topology(4, [(1, 2), (2, 3), (3, 4)]))
        assert other != run


class TestSpectra:
    # ring-4 eigenvalues are 2 - 2cos(2 pi k / 4) for k = 0..3: {0, 2, 4, 2}
    def test_fiedler_ring4(self):
        top = build_topology(4, RING4_EDGES)
        assert np.linalg.eigvalsh(top.laplacian)[1] == pytest.approx(2.0, abs=EIG_TOL)

    def test_ring4_full_spectrum(self):
        top = build_topology(4, RING4_EDGES)
        eigs = np.linalg.eigvalsh(top.laplacian)
        assert eigs == pytest.approx([0.0, 2.0, 2.0, 4.0], abs=EIG_TOL)

    def test_fiedler_path2(self):
        # [[1, -1], [-1, 1]] has spectrum {0, 2}
        top = build_topology(2, [(1, 2)])
        assert np.linalg.eigvalsh(top.laplacian)[1] == pytest.approx(2.0, abs=EIG_TOL)

    def test_fiedler_complete4(self):
        # complete graph on N nodes: {0, N, ..., N}
        edges = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
        top = build_topology(4, edges)
        assert np.linalg.eigvalsh(top.laplacian)[1] == pytest.approx(4.0, abs=EIG_TOL)

    def test_fiedler_single_node_undefined(self):
        # the spectrum of a single node is just {0}: no second eigenvalue
        top = build_topology(1, [])
        assert np.linalg.eigvalsh(top.laplacian).tolist() == [0.0]

    def test_min_eig_shifted_ring4(self):
        top = build_topology(4, RING4_EDGES)
        shifted = top.laplacian + np.eye(top.n_agents)
        assert np.linalg.eigvalsh(shifted)[0] == pytest.approx(1.0, abs=EIG_TOL)

    def test_min_eig_shifted_single_node(self):
        top = build_topology(1, [])
        shifted = top.laplacian + np.eye(top.n_agents)
        assert np.linalg.eigvalsh(shifted)[0] == pytest.approx(1.0, abs=EIG_TOL)

    def test_min_eig_shifted_complete3(self):
        top = build_topology(3, [(1, 2), (1, 3), (2, 3)])
        shifted = top.laplacian + np.eye(top.n_agents)
        assert np.linalg.eigvalsh(shifted)[0] == pytest.approx(1.0, abs=EIG_TOL)

    def test_laplacian_positive_semidefinite(self):
        top = build_topology(4, RING4_EDGES)
        assert np.linalg.eigvalsh(top.laplacian)[0] >= -1e-12


def random_connected_graph(rng: SplitMix64, n: int) -> Topology:
    """Random spanning tree plus a few random extra edges."""
    edges = set()
    order = list(range(1, n + 1))
    # Fisher-Yates shuffle driven by the deterministic stream
    for i in range(n - 1, 0, -1):
        j = int(rng.uniform(0, i + 1))
        order[i], order[j] = order[j], order[i]
    for k in range(1, n):
        attach = order[int(rng.uniform(0, k))]
        a, b = min(attach, order[k]), max(attach, order[k])
        edges.add((a, b))
    n_extra = int(rng.uniform(0, n))
    for _ in range(n_extra):
        a = int(rng.uniform(1, n + 1))
        b = int(rng.uniform(1, n + 1))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return build_topology(n, sorted(edges))


class TestRandomGraphs:
    def test_shifted_min_eig_is_one_on_random_connected_graphs(self):
        rng = SplitMix64(2024)
        for trial in range(20):
            n = 2 + trial % 7
            top = random_connected_graph(rng, n)
            shifted = top.laplacian + np.eye(top.n_agents)
            assert np.linalg.eigvalsh(shifted)[0] == pytest.approx(1.0, abs=EIG_TOL)
            assert np.linalg.eigvalsh(top.laplacian)[1] > 0.0
            assert np.max(np.abs(top.laplacian.sum(axis=1))) == 0.0
            assert np.array_equal(adjacency(top), adjacency(top).T)
