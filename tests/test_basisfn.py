import numpy as np
import pytest

from klbasis import klcore
from klbasis.basisfn import (
    BasisFunction,
    barycentric_weights,
    differentiation_matrix,
    interpolate,
)
from klbasis.errors import NumericalError
from klbasis.sampling import GRID_KINDS, make_grid


def cheb_nodes(n, a, b):
    return make_grid("chebyshev-lobatto", n, a, b)


class TestEval:
    def test_constant_reproduction(self):
        f = BasisFunction(cheb_nodes(9, 0.0, 1.0), np.full(9, 3.25))
        xs = np.linspace(0.0, 1.0, 40)
        assert np.max(np.abs(f.eval(xs) - 3.25)) <= 1e-12 * 3.25

    def test_quadratic_exactness(self):
        nodes = cheb_nodes(5, 0.0, 1.0)
        f = BasisFunction(nodes, nodes**2)
        assert f.eval(1.5 / 2.0) == pytest.approx((1.5 / 2.0) ** 2, abs=1e-12)

    def test_node_values_exact(self):
        nodes = np.linspace(0.0, 2.0, 7)
        samples = np.sin(nodes)
        f = BasisFunction(nodes, samples)
        for x, s in zip(nodes, samples):
            assert f.eval(float(x)) == s

    def test_rejects_extrapolation(self):
        f = BasisFunction(np.linspace(0.0, 1.0, 4), np.zeros(4))
        with pytest.raises(ValueError):
            f.eval(1.0001)
        with pytest.raises(ValueError):
            f.eval(-0.0001)

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            BasisFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4))

    @pytest.mark.parametrize(
        "nodes", [[0.5, 1.0, 0.0, 0.5], [0.0, 1.0, -0.0], [-0.0, 0.5, 0.0, 1.0]]
    )
    def test_rejects_repeated_nodes_in_any_order(self, nodes):
        # -0.0 and 0.0 are the same point
        with pytest.raises(ValueError, match="^interpolation nodes must be distinct$"):
            BasisFunction(np.array(nodes), np.zeros(len(nodes)))

    def test_accepts_distinct_unsorted_nodes(self):
        nodes = np.array([0.0, 0.75, 0.5, 1.0])
        f = BasisFunction(nodes, nodes**2)
        assert f.eval(0.3) == pytest.approx(0.09, rel=1e-14)


class TestDerivatives:
    def test_quadratic_first_derivative(self):
        nodes = cheb_nodes(5, 0.0, 1.0)
        f = BasisFunction(nodes, nodes**2)
        assert f.deriv(0.25, order=1) == pytest.approx(0.5, abs=1e-10)

    def test_constant_derivatives_vanish(self):
        f = BasisFunction(cheb_nodes(6, 0.0, 1.0), np.full(6, 2.0))
        for order in (1, 2):
            assert abs(f.deriv(0.37, order=order)) <= 1e-10

    def test_cubic_second_derivative(self):
        nodes = np.linspace(0.0, 2.0, 6)
        f = BasisFunction(nodes, nodes**3)
        assert f.deriv(1.0, order=2) == pytest.approx(6.0, abs=1e-9)

    def test_narrow_node_span_raises(self):
        # D scales like 1/span: D^2 S overflows on nodes 1e-300 apart
        with pytest.raises(NumericalError, match="node span is too narrow"):
            BasisFunction(cheb_nodes(20, 0.0, 1e-300), np.linspace(0.0, 1.0, 20))

    def test_rejects_higher_order(self):
        f = BasisFunction(np.linspace(0.0, 1.0, 4), np.zeros(4))
        with pytest.raises(ValueError):
            f.deriv(0.5, order=3)

    def test_matches_finite_differences(self):
        nodes = cheb_nodes(12, 0.0, 2.0)
        f = BasisFunction(nodes, np.exp(nodes / 2.0))
        h = 1e-5 * 2.0
        for x in np.linspace(0.3, 1.7, 11):
            fd = (f.eval(x + h) - f.eval(x - h)) / (2 * h)
            assert f.deriv(x, order=1) == pytest.approx(fd, rel=1e-5)

    def test_derivative_at_node_is_matrix_product(self):
        nodes = np.linspace(0.0, 1.0, 8)
        samples = np.cos(nodes)
        D = differentiation_matrix(nodes)
        f = BasisFunction(nodes, samples)
        d1 = D @ samples
        d2 = D @ d1
        for i, x in enumerate(nodes):
            assert f.deriv(float(x), order=1) == d1[i]
            assert f.deriv(float(x), order=2) == d2[i]


class TestTabulate:
    NODES = cheb_nodes(12, 0.0, 3.0)
    FUNCS = BasisFunction(NODES, np.column_stack([np.sin(NODES), np.exp(-NODES)]))

    @pytest.mark.parametrize(
        "x",
        [np.linspace(0.1, 2.9, 7), 1.234, NODES[3], NODES[[0, 5, 11]], np.array([])],
        ids=["array", "scalar", "on-node", "on-nodes", "empty"],
    )
    def test_blocks_equal_eval_and_deriv(self, x):
        f = self.FUNCS
        values, first, second = f.tabulate(x, 0, 1, 2)
        assert np.array_equal(values, f.eval(x))
        assert np.array_equal(first, f.deriv(x, order=1))
        assert np.array_equal(second, f.deriv(x, order=2))
        assert values.shape == np.shape(x) + (2,)

    def test_blocks_in_the_order_asked(self):
        x = np.linspace(0.2, 2.8, 5)
        second, values = self.FUNCS.tabulate(x, 2, 0)
        assert np.array_equal(second, self.FUNCS.deriv(x, order=2))
        assert np.array_equal(values, self.FUNCS.eval(x))
        assert self.FUNCS.tabulate(x) == ()

    @pytest.mark.parametrize("order", [-1, 3, 0.5])
    def test_rejects_other_orders(self, order):
        with pytest.raises(ValueError, match="tabulated orders must be 0, 1 or 2"):
            self.FUNCS.tabulate(1.0, 0, order)


class TestPolynomialExactness:
    @pytest.mark.parametrize(
        "nodes",
        [cheb_nodes(20, 0.0, 1.0), np.linspace(0.0, 2.0, 12)],
        ids=["cheb20", "uniform12"],
    )
    def test_monomials_reproduced_and_differentiated(self, nodes):
        n = nodes.size
        xs = np.linspace(nodes[0], nodes[-1], 37)
        for k in range(n):
            f = BasisFunction(nodes, nodes**k)
            scale = max(np.max(np.abs(xs**k)), 1.0)
            assert np.max(np.abs(f.eval(xs) - xs**k)) <= 1e-9 * scale
            d1 = k * xs ** (k - 1) if k >= 1 else np.zeros_like(xs)
            d1_scale = max(np.max(np.abs(d1)), 1.0)
            assert np.max(np.abs(f.deriv(xs, 1) - d1)) <= 1e-9 * d1_scale * 10


class TestLinearity:
    def test_combination_on_samples(self):
        nodes = cheb_nodes(9, 0.0, 3.0)
        s1 = np.exp(-nodes)
        s2 = nodes**2
        alpha, beta = 1.7, -0.4
        f1 = BasisFunction(nodes, s1)
        f2 = BasisFunction(nodes, s2)
        fc = BasisFunction(nodes, alpha * s1 + beta * s2)
        xs = np.linspace(0.0, 3.0, 23)
        combo = alpha * f1.eval(xs) + beta * f2.eval(xs)
        scale = np.maximum(np.abs(combo), 1e-30)
        assert np.max(np.abs(fc.eval(xs) - combo) / scale) <= 1e-12


class TestMatrixValued:
    def test_columns_match_single_functions(self):
        nodes = cheb_nodes(15, 0.0, 3.0)
        S = np.column_stack([np.exp(-nodes), np.sin(nodes), nodes**3])
        f = BasisFunction(nodes, S)
        xs = np.concatenate([np.linspace(0.0, 3.0, 29), nodes[3:5]])
        # matrix and vector products round differently; each derivative
        # order amplifies that by about ||D|| ~ N^2 / (b - a)
        cases = (("eval", (), 1e-13), ("deriv", (1,), 1e-11), ("deriv", (2,), 1e-10))
        for method, args, rtol in cases:
            mat = getattr(f, method)(xs, *args)
            assert mat.shape == (xs.size, 3)
            for j in range(3):
                col = getattr(BasisFunction(nodes, S[:, j]), method)(xs, *args)
                scale = max(np.max(np.abs(col)), 1.0)
                assert np.max(np.abs(mat[:, j] - col)) <= rtol * scale

    def test_scalar_point_gives_one_row(self):
        nodes = np.linspace(0.0, 1.0, 6)
        S = np.column_stack([nodes, nodes**2])
        f = BasisFunction(nodes, S)
        assert f.eval(0.5).shape == (2,)
        assert f.eval(0.5) == pytest.approx([0.5, 0.25], abs=1e-12)
        assert f.deriv(0.5, order=2) == pytest.approx([0.0, 2.0], abs=1e-9)

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            BasisFunction(np.linspace(0.0, 1.0, 5), np.zeros((4, 2)))


class TestInterpolateAndTabulate:
    def test_interpolate_reproduces_samples(self, reproduction_pipeline):
        tb = klcore.truncate_basis(reproduction_pipeline["basis"], 5)
        f = interpolate(tb)
        assert f.samples.shape == (20, 5)
        nodes = reproduction_pipeline["points"]
        vals = f.eval(nodes)
        scale = np.maximum(np.abs(tb.vectors), 1e-30)
        assert np.max(np.abs(vals - tb.vectors) / scale) <= 1e-10

    def test_weights_scale_invariance(self):
        nodes = np.linspace(0.0, 40.0, 20)
        w = barycentric_weights(nodes)
        assert np.all(np.isfinite(w))
        assert np.all(w != 0.0)


def _loop_weights(nodes):
    """Barycentric weights one node at a time, as the per-node loop did."""
    scale = 4.0 / (nodes[-1] - nodes[0])
    w = np.ones(nodes.size)
    for j in range(nodes.size):
        diffs = (nodes[j] - nodes) * scale
        diffs[j] = 1.0
        w[j] = 1.0 / np.prod(diffs)
    return w


@pytest.mark.parametrize("n", [2, 3, 20, 80, 300])
@pytest.mark.parametrize("kind", GRID_KINDS)
def test_weights_bit_identical_to_per_node_loop(kind, n):
    nodes = make_grid(kind, n, 0.0, 40.0)
    assert np.array_equal(barycentric_weights(nodes), _loop_weights(nodes))
