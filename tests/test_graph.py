"""Tests for topology construction, spectral quantities, and stepsize checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etdopt.graph import (
    Graph,
    GraphConfigError,
    StepsizeCheck,
    adjacency,
    check_stepsize_composite,
    check_stepsize_strongly_convex,
    eigh,
    generate_random_graph,
    is_connected,
    laplacian,
    laplacian_norm,
    laplacian_quadratic_norm,
    max_eigenvalue,
    min_eigenvalue,
)


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
        assert g.neighbors[0] == (1, 2)
        assert g.neighbors[1] == (0, 3)
        assert g.degrees == (2, 2, 1, 1)


class TestGenerateRandomGraph:
    def test_paper_scale_edge_count(self):
        # r * n(n-1)/2 with n=100, r=0.4
        g = generate_random_graph(100, 0.4, seed=7)
        assert g.num_edges == 1980
        assert is_connected(g)

    def test_complete_triangle(self):
        g = generate_random_graph(3, 1.0, seed=0)
        assert g.num_edges == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_two_nodes_single_edge(self):
        g = generate_random_graph(2, 1.0, seed=0)
        assert g.num_edges == 1
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
        a = adjacency(g)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert g.num_edges == target
        assert is_connected(g)


class TestLaplacian:
    def test_path_matrix(self):
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.array_equal(laplacian(path3()), expected)

    def test_triangle_matrix(self):
        lap = laplacian(triangle())
        assert np.array_equal(np.diag(lap), [2.0, 2.0, 2.0])
        off = lap[~np.eye(3, dtype=bool)]
        assert np.all(off == -1.0)

    def test_single_node(self):
        assert np.array_equal(laplacian(Graph.from_edges(1, [])), [[0.0]])

    def test_rows_sum_to_zero_exactly(self):
        g = generate_random_graph(40, 0.3, seed=3)
        lap = laplacian(g)
        assert np.all(lap @ np.ones(40) == 0.0)


class TestIsConnected:
    def test_path_connected(self):
        assert is_connected(path3())

    def test_disjoint_edges_disconnected(self):
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_single_node_connected(self):
        assert is_connected(Graph.from_edges(1, []))


class TestEigenvalues:
    def test_triangle_max(self):
        # oracle: np.linalg.eigvalsh on the 3x3
        lap = laplacian(triangle())
        expected = np.linalg.eigvalsh(lap)[-1]
        assert expected == pytest.approx(3.0, abs=1e-12)
        assert max_eigenvalue(lap) == pytest.approx(expected, rel=1e-8)

    def test_path3_max(self):
        # characteristic polynomial of the path Laplacian: roots 0, 1, 3
        assert max_eigenvalue(laplacian(path3())) == pytest.approx(3.0, rel=1e-8)

    def test_zero_matrix(self):
        assert max_eigenvalue(np.zeros((4, 4))) == 0.0

    def test_min_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, rel=1e-8)

    def test_min_laplacian_is_zero(self):
        for seed in (0, 1):
            g = generate_random_graph(12, 0.4, seed=seed)
            assert min_eigenvalue(laplacian(g)) == pytest.approx(0.0, abs=1e-7)

    def test_min_indefinite_diagonal(self):
        assert min_eigenvalue(np.diag([-2.0, 5.0])) == pytest.approx(-2.0, rel=1e-8)

    def test_max_dominant_negative_eigenvalue(self):
        # shift handling: largest signed eigenvalue, not largest magnitude
        assert max_eigenvalue(np.diag([-5.0, 2.0])) == pytest.approx(2.0, rel=1e-8)

    def test_matches_dense_oracle_on_random_symmetric(self):
        rng = np.random.default_rng(42)
        for n in (2, 5, 16, 64):
            m = rng.standard_normal((n, n))
            m = m + m.T
            expected = np.linalg.eigvalsh(m)
            assert max_eigenvalue(m) == pytest.approx(expected[-1], rel=1e-8)
            assert min_eigenvalue(m) == pytest.approx(expected[0], rel=1e-8)

    def test_eigh_full_spectrum_matches_oracle(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((20, 20))
        m = m + m.T
        w, v = eigh(m)
        expected = np.linalg.eigvalsh(m)
        assert np.allclose(w, expected, rtol=1e-10, atol=1e-10)
        assert np.allclose(m @ v, v @ np.diag(w), atol=1e-9)

    def test_fiedler_positive_iff_connected(self):
        g = generate_random_graph(16, 0.4, seed=1)
        w, _ = eigh(laplacian(g))
        assert w[0] == pytest.approx(0.0, abs=1e-9)
        assert w[1] > 1e-9
        disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
        w2, _ = eigh(laplacian(disconnected))
        assert w2[1] == pytest.approx(0.0, abs=1e-12)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            max_eigenvalue(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_min_sign_correct_just_below_zero(self):
        # a Laplacian shifted down by 1e-10 is indefinite; the margin must
        # read negative, or a stepsize check would call it positive definite
        lap = laplacian(generate_random_graph(64, 0.1, seed=1))
        shifted = lap - 1e-10 * np.eye(64)
        assert min_eigenvalue(shifted) < 0.0
        assert min_eigenvalue(shifted) == pytest.approx(-1e-10, abs=1e-13)
        lam_max = max_eigenvalue(lap)
        check = check_stepsize_composite(lam_max - 1e-10 + 1.0, 1.0, lap, np.ones(64))
        assert not check.ok
        assert check.margin == pytest.approx(-1e-10, abs=1e-13)


class TestLaplacianQuadraticNorm:
    def test_matches_explicit_sqrt_factor(self):
        # oracle: eigendecomposition square root of L
        g = generate_random_graph(12, 0.4, seed=9)
        lap = laplacian(g)
        w, v = np.linalg.eigh(lap)
        sqrt_lap = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T
        rng = np.random.default_rng(0)
        vec = rng.standard_normal((12, 3))
        direct = laplacian_quadratic_norm(lap, vec)
        explicit = np.linalg.norm(sqrt_lap @ vec)
        assert direct == pytest.approx(explicit, abs=1e-12)

    def test_exact_near_consensus(self):
        # A consensus point perturbed by 1e-12 on the CLI's default graph:
        # the edge-difference sum is the exact value, which the centred
        # form keeps and the plain sum(v * (L @ v)) loses to cancellation.
        lap = laplacian(generate_random_graph(100, 0.4, seed=1))
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
        norm = laplacian_norm(laplacian(generate_random_graph(12, 0.4, seed=9)))
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
        lap = laplacian(g)
        assert laplacian(g) is lap
        assert not lap.flags.writeable
        assert np.array_equal(lap, laplacian(Graph.from_edges(12, g.edges)))


class TestStepsizeChecks:
    def test_composite_passing_margin(self):
        # eigensolve oracle: max eig of the triangle Laplacian is 3,
        # so the margin is 1.5 - 0.1*3 - 1 = 0.2
        ok, margin = check_stepsize_composite(1.5, 0.1, laplacian(triangle()), 1.0)
        assert ok
        assert margin == pytest.approx(0.2, abs=1e-8)

    def test_composite_failing_margin(self):
        ok, margin = check_stepsize_composite(1.0, 0.1, laplacian(triangle()), 1.0)
        assert not ok
        assert margin == pytest.approx(-0.3, abs=1e-8)

    def test_composite_trivial_identity(self):
        lap = np.zeros((3, 3))
        ok, margin = check_stepsize_composite(1.0, 1e-12, lap, 0.0)
        assert ok
        assert margin == pytest.approx(1.0, abs=1e-8)

    def test_strongly_convex_passing(self):
        # 2 - 0.1*3 - 1/1 = 0.7
        ok, margin = check_stepsize_strongly_convex(
            2.0, 0.1, laplacian(triangle()), 1.0, 1.0, k1=1.0
        )
        assert ok
        assert margin == pytest.approx(0.7, abs=1e-8)

    def test_strongly_convex_failing(self):
        ok, margin = check_stepsize_strongly_convex(
            1.0, 0.1, laplacian(triangle()), 1.0, 1.0, k1=1.0
        )
        assert not ok
        assert margin == pytest.approx(-0.3, abs=1e-8)

    def test_strongly_convex_is_composite_with_squared_lipschitz(self):
        lap = laplacian(generate_random_graph(20, 0.3, seed=5))
        rng = np.random.default_rng(6)
        eta, lf, mu = rng.uniform(1.0, 3.0, (3, 20))
        k1 = 0.7 * float(np.min(mu))
        strong = check_stepsize_strongly_convex(eta, 0.05, lap, lf, mu, k1)
        composite = check_stepsize_composite(eta, 0.05, lap, lf**2 / k1)
        assert strong.margin == composite.margin  # bitwise
        assert strong.ok == composite.ok

    def test_k1_range_is_open(self):
        with pytest.raises(ValueError):
            check_stepsize_strongly_convex(
                2.0, 0.1, laplacian(triangle()), 1.0, 1.0, k1=2.0
            )

    def test_returns_named_tuple(self):
        result = check_stepsize_composite(1.5, 0.1, laplacian(triangle()), 1.0)
        assert isinstance(result, StepsizeCheck)
