"""Tests for topology construction, Laplacian spectra, and stepsize margins."""

import numpy as np
import pytest
from conftest import logistic_run_config
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etdopt.engine import ConfigError, stepsize_margin, suggested_stepsizes
from etdopt.graph import (
    Graph,
    GraphConfigError,
    generate_random_graph,
    is_connected,
    laplacian_norm,
)
from etdopt.objective import CompositeObjective, LogisticLoss, make_quadratic_instance


def triangle():
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphConfigError):
            Graph.from_edges(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphConfigError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphConfigError):
            Graph.from_edges(2, [(0, 3)])

    def test_neighbors_sorted_and_symmetric(self):
        g = Graph.from_edges(4, [(2, 0), (3, 1), (0, 1)])
        assert g.edges == ((0, 1), (0, 2), (1, 3))
        lap = g.laplacian
        assert np.array_equal(lap, lap.T)
        assert np.flatnonzero(lap[0] < 0).tolist() == [1, 2]
        assert np.flatnonzero(lap[1] < 0).tolist() == [0, 3]
        assert np.diag(lap).tolist() == [2.0, 2.0, 1.0, 1.0]


class TestGenerateRandomGraph:
    def test_paper_scale_edge_count(self):
        # r * n(n-1)/2 with n=100, r=0.4
        g = generate_random_graph(100, 0.4, seed=7)
        assert len(g.edges) == 1980
        assert is_connected(g)

    def test_complete_triangle(self):
        g = generate_random_graph(3, 1.0, seed=0)
        assert len(g.edges) == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_two_nodes_single_edge(self):
        g = generate_random_graph(2, 1.0, seed=0)
        assert len(g.edges) == 1
        assert is_connected(g)

    def test_infeasible_edge_budget_rejected(self):
        with pytest.raises(GraphConfigError):
            generate_random_graph(10, 0.02, seed=0)  # round(0.9) = 1 edge < 9

    def test_deterministic_in_seed(self):
        a = generate_random_graph(30, 0.2, seed=5)
        b = generate_random_graph(30, 0.2, seed=5)
        c = generate_random_graph(30, 0.2, seed=6)
        assert a.edges == b.edges
        assert a.edges != c.edges

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=24),
        r_percent=st.integers(min_value=30, max_value=100),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    # r * 45 is 31.499999999999996 for r = 0.7, so 31 edges; evaluating
    # ((r * n) * (n - 1)) / 2 instead lands on the tie 31.5 and rounds to 32
    @example(n=10, r_percent=70, seed=0)
    def test_generated_invariants(self, n, r_percent, seed):
        r = r_percent / 100.0
        target = int(round(r * (n * (n - 1) // 2)))
        if target < n - 1:
            return
        g = generate_random_graph(n, r, seed)
        lap = g.laplacian
        assert np.array_equal(lap, lap.T)
        assert np.all(np.isin(lap[~np.eye(n, dtype=bool)], (0.0, -1.0)))  # simple, no loops
        assert len(g.edges) == target
        assert is_connected(g)
        assert g == Graph.from_edges(n, g.edges)  # sorted, unique, in range


class TestLaplacian:
    def test_path_matrix(self):
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(path3().laplacian, expected)

    def test_triangle_matrix(self):
        lap = triangle().laplacian
        assert np.array_equal(np.diag(lap), [2.0, 2.0, 2.0])
        off = lap[~np.eye(3, dtype=bool)]
        assert np.all(off == -1.0)

    def test_single_node(self):
        assert np.array_equal(Graph.from_edges(1, []).laplacian, [[0.0]])

    def test_rows_sum_to_zero_exactly(self):
        g = generate_random_graph(40, 0.3, seed=3)
        lap = g.laplacian
        assert np.all(lap @ np.ones(40) == 0.0)


class TestIsConnected:
    def test_path_connected(self):
        assert is_connected(path3())

    def test_disjoint_edges_disconnected(self):
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_single_node_connected(self):
        assert is_connected(Graph.from_edges(1, []))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                .filter(lambda e: e[0] < e[1]), max_size=n * (n - 1) // 2))))
    @example((1, set()))
    @example((4, {(0, 1), (2, 3)}))
    @example((5, {(0, 1), (1, 2), (2, 3)}))  # node 4 isolated
    def test_matches_union_find(self, graph):
        n, edges = graph
        parent = list(range(n))

        def root(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i, j in edges:
            parent[root(i)] = root(j)
        components = len({root(i) for i in range(n)})
        assert is_connected(Graph.from_edges(n, edges)) == (components == 1)


class TestEigenvalues:
    def test_triangle_max(self):
        # the complete graph K3 has Laplacian spectrum {0, 3, 3}
        assert np.linalg.eigvalsh(triangle().laplacian) == pytest.approx([0.0, 3.0, 3.0], abs=1e-12)

    def test_path3_max(self):
        # characteristic polynomial of the path Laplacian: roots 0, 1, 3
        assert np.linalg.eigvalsh(path3().laplacian) == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)

    def test_zero_matrix(self):
        # no edges: the Laplacian is the zero matrix
        assert np.array_equal(Graph.from_edges(4, []).laplacian, np.zeros((4, 4)))

    def test_min_laplacian_is_zero(self):
        for seed in (0, 1):
            g = generate_random_graph(12, 0.4, seed=seed)
            assert np.linalg.eigvalsh(g.laplacian)[0] == pytest.approx(0.0, abs=1e-7)

    def test_fiedler_positive_iff_connected(self):
        w = np.linalg.eigvalsh(generate_random_graph(16, 0.4, seed=1).laplacian)
        assert w[0] == pytest.approx(0.0, abs=1e-9)
        assert w[1] > 1e-9
        w2 = np.linalg.eigvalsh(Graph.from_edges(4, [(0, 1), (2, 3)]).laplacian)
        assert w2[1] == pytest.approx(0.0, abs=1e-12)

    def test_min_sign_correct_just_below_zero(self):
        # eta = lam_max - 1e-10 + 1 with beta = 1 and unit curvature leaves
        # (lam_max - 1e-10) I - L, indefinite by 1e-10: the margin must read
        # negative, or the stepsize check would call it positive definite
        g = generate_random_graph(64, 0.1, seed=1)
        lam_max = np.linalg.eigvalsh(g.laplacian)[-1]
        margin = stepsize_margin(np.full(64, lam_max - 1e-10 + 1.0), 1.0, g, np.ones(64))
        assert margin < 0.0
        assert margin == pytest.approx(-1e-10, abs=1e-13)


class TestLaplacianQuadraticNorm:
    def test_matches_explicit_sqrt_factor(self):
        # oracle: eigendecomposition square root of L
        g = generate_random_graph(12, 0.4, seed=9)
        lap = g.laplacian
        w, v = np.linalg.eigh(lap)
        sqrt_lap = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T
        rng = np.random.default_rng(0)
        vec = rng.standard_normal((12, 3))
        direct = laplacian_norm(lap)(vec)
        explicit = np.linalg.norm(sqrt_lap @ vec)
        assert direct == pytest.approx(explicit, abs=1e-12)

    def test_exact_near_consensus(self):
        # A consensus point perturbed by 1e-12 on the CLI's default graph:
        # the edge-difference sum is the exact value, which the centred
        # form keeps and the plain sum(v * (L @ v)) loses to cancellation.
        lap = generate_random_graph(100, 0.4, seed=1).laplacian
        rng = np.random.default_rng(0)
        point = np.tile(rng.standard_normal(50), (100, 1))
        v = point + 1e-12 * rng.standard_normal((100, 50))
        ii, jj = np.nonzero(np.triu(lap, 1))
        diff = v[ii] - v[jj]
        edge = np.sqrt(np.sum(-lap[ii, jj][:, None] * diff * diff))
        assert laplacian_norm(lap)(point) == 0.0
        assert laplacian_norm(lap)(v) == pytest.approx(edge, rel=1e-12)
        plain = np.sqrt(abs(np.sum(v * (lap @ v))))
        assert abs(plain - edge) > 100.0 * edge

    def test_finite_where_the_squares_overflow(self):
        # Power-of-two scaling is exact, so the value scales with the point;
        # only a non-finite point gives a non-finite norm.
        norm = laplacian_norm(generate_random_graph(12, 0.4, seed=9).laplacian)
        v = np.random.default_rng(1).standard_normal((12, 3))
        with np.errstate(over="ignore", invalid="ignore"):
            assert norm(v * 2.0**600) == norm(v) * 2.0**600
            v[4, 1] = np.inf
            assert norm(v) == np.inf
            v[4, 1] = np.nan
            assert np.isnan(norm(v))

    @pytest.mark.parametrize("mat", [
        np.eye(3),                              # nonzero row sums
        np.array([[-1.0, 1.0], [1.0, -1.0]]),   # positive off-diagonal
    ])
    def test_non_laplacian_rejected(self, mat):
        with pytest.raises(ValueError, match="Laplacian"):
            laplacian_norm(mat)

    def test_laplacian_built_once_per_graph(self):
        g = generate_random_graph(12, 0.4, seed=9)
        lap = g.laplacian
        assert g.laplacian is lap
        assert not lap.flags.writeable
        assert np.array_equal(lap, Graph.from_edges(12, g.edges).laplacian)
        assert g == Graph.from_edges(12, g.edges)


class TestStepsizeChecks:
    def test_composite_passing_margin(self):
        # eigensolve oracle: max eig of the triangle Laplacian is 3,
        # so the margin is 1.5 - 0.1*3 - 1 = 0.2
        margin = stepsize_margin(np.full(3, 1.5), 0.1, triangle(), np.ones(3))
        assert margin == pytest.approx(0.2, abs=1e-8)

    def test_composite_failing_margin(self):
        margin = stepsize_margin(np.ones(3), 0.1, triangle(), np.ones(3))
        assert margin == pytest.approx(-0.3, abs=1e-8)

    def test_composite_trivial_identity(self):
        margin = stepsize_margin(np.ones(3), 1e-12, Graph.from_edges(3, []), np.zeros(3))
        assert margin == pytest.approx(1.0, abs=1e-8)

    def test_strongly_convex_passing(self):
        # curvature L_f**2 / k1 = 1: 2 - 0.1*3 - 1 = 0.7
        margin = stepsize_margin(np.full(3, 2.0), 0.1, triangle(), np.ones(3) ** 2 / 1.0)
        assert margin == pytest.approx(0.7, abs=1e-8)

    def test_strongly_convex_failing(self):
        margin = stepsize_margin(np.ones(3), 0.1, triangle(), np.ones(3) ** 2 / 1.0)
        assert margin == pytest.approx(-0.3, abs=1e-8)

    def test_strongly_convex_is_composite_with_squared_lipschitz(self):
        # validate's two margins, bit for bit: curvature L_f, then L_f**2 / min mu
        cfg = logistic_run_config(n=20, ridge=0.5, rounds=0)
        lf, mu = cfg.objective.lipschitz(), cfg.objective.strong_convexity()
        assert np.all(mu > 0.0)
        expected = (stepsize_margin(cfg.eta, cfg.beta, cfg.graph, lf),
                    stepsize_margin(cfg.eta, cfg.beta, cfg.graph, lf**2 / float(np.min(mu))))
        assert cfg.validate() == expected

    def test_k1_range_is_open(self):
        obj = make_quadratic_instance(3, 2, seed=1)
        mu_min = float(np.min(obj.strong_convexity()))
        for k1 in (0.0, 2.0 * mu_min):
            with pytest.raises(ConfigError, match="k1"):
                suggested_stepsizes(triangle(), obj, regime="strongly-convex", k1=k1)
        eta, _ = suggested_stepsizes(triangle(), obj, regime="strongly-convex", k1=mu_min)
        assert np.all(eta > 0.0)

    def test_strongly_convex_regime_needs_positive_moduli(self):
        rng = np.random.default_rng(0)
        # agent 1 has no ridge, so it is not strongly convex
        obj = CompositeObjective([LogisticLoss(rng.standard_normal((4, 2)), np.ones(4), ridge=r)
                                  for r in (1.0, 0.0, 1.0)], np.zeros(3))
        assert obj.strong_convexity().tolist() == [1.0, 0.0, 1.0]
        with pytest.raises(ConfigError, match="positive moduli"):
            suggested_stepsizes(triangle(), obj, regime="strongly-convex")

    def test_unknown_regime_rejected(self):
        with pytest.raises(ConfigError, match="regime"):
            suggested_stepsizes(triangle(), make_quadratic_instance(3, 2, seed=1), regime="convex!")
