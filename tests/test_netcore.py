import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paritylab import labcli
from paritylab import netcore as nc
from _util import finite_difference_gradient, gradient_scaled_error, make_random_dag_net


def chain_net(activation=nc.SIGMOID, w_const=0.0):
    g = nc.NetGraph(vertex_count=2, input_size=0, edges=((0, 1),),
                    constant=0, inputs=(), output=1)
    return nc.NeuralNet(activation, g, nc.WeightVector.from_dict(g, {(0, 1): w_const}))


class TestTopologicalOrder:
    def test_chain_single_order(self):
        # v0 -> a -> b(out)
        g = nc.NetGraph(vertex_count=3, input_size=0, edges=((0, 1), (1, 2)),
                        constant=0, inputs=(), output=2)
        assert nc.topological_order(g) == [1, 2]

    def test_parallel_tie_break_by_id(self):
        # constant feeds a and b, both feed out; a < b
        g = nc.NetGraph(vertex_count=4, input_size=0,
                        edges=((0, 1), (0, 2), (1, 3), (2, 3)),
                        constant=0, inputs=(), output=3)
        assert nc.topological_order(g) == [1, 2, 3]

    def test_cycle_detected(self):
        with pytest.raises(nc.CycleDetected):
            nc.NetGraph(vertex_count=4, input_size=0,
                        edges=((0, 1), (1, 2), (2, 1), (1, 3), (2, 3)),
                        constant=0, inputs=(), output=3)

    def test_every_non_source_exactly_once(self):
        rng = np.random.default_rng(5)
        net = make_random_dag_net(rng, n_inputs=3, n_interior=8)
        order = nc.topological_order(net.graph)
        assert sorted(order) == sorted(net.graph.interior_vertices())


class TestGraphInvariants:
    def test_source_with_incoming_edge_rejected(self):
        with pytest.raises(nc.InvalidGraph):
            nc.NetGraph(vertex_count=3, input_size=1, edges=((0, 1), (1, 2)),
                        constant=0, inputs=(1,), output=2)

    def test_unreachable_vertex_rejected(self):
        # vertex 2 never reaches the output 3
        with pytest.raises(nc.InvalidGraph):
            nc.NetGraph(vertex_count=4, input_size=0, edges=((0, 2), (0, 3)),
                        constant=0, inputs=(), output=3)

    def test_interior_indegree_zero_rejected(self):
        with pytest.raises(nc.InvalidGraph):
            nc.NetGraph(vertex_count=3, input_size=0, edges=((1, 2), (0, 2)),
                        constant=0, inputs=(), output=2)

    def test_weight_keys_must_match_edges(self):
        g = nc.NetGraph(vertex_count=2, input_size=0, edges=((0, 1),),
                        constant=0, inputs=(), output=1)
        with pytest.raises(nc.InvalidGraph):
            nc.WeightVector.from_dict(g, {(0, 1): 1.0, (1, 0): 2.0})


class TestEvaluate:
    def test_sigmoid_of_zero(self):
        assert chain_net().evaluate(np.array([])) == 0.5

    def test_sigmoid_bits_equal_two_branch_form(self):
        rng = np.random.default_rng(8)
        edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 745.0, -745.0,
                 1e308, -1e308, 5e-324, -5e-324]
        z = np.concatenate([rng.normal(size=200) * scale
                            for scale in (1e-8, 1e-3, 1.0, 30.0, 1e3)] + [edges])
        with np.errstate(invalid="ignore"):
            e = np.exp(-np.abs(z))
            reference = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
            got = nc._sigmoid(z.copy())
            scalars = [nc._sigmoid(np.asarray(v)) for v in z]
        assert got.view(np.uint64).tolist() == reference.view(np.uint64).tolist()
        assert all(s.shape == () for s in scalars)
        assert np.array(scalars).view(np.uint64).tolist() == reference.view(np.uint64).tolist()

    @staticmethod
    def _mask_form(z):
        # the former implementation, which stored through a boolean mask
        e = np.abs(z, out=np.empty_like(z))
        np.negative(e, out=e)
        np.exp(e, out=e)
        denominator = e + 1.0
        e[z >= 0] = 1.0
        e /= denominator
        return e

    @pytest.mark.parametrize("shape", [(), (1,), "2-D"])
    @pytest.mark.parametrize("mode", ["alloc", "out", "out+scratch", "in place"])
    def test_sigmoid_out_bits_equal_mask_form(self, shape, mode):
        rng = np.random.default_rng(9)
        edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 745.0, -745.0,
                 1e308, -1e308, 5e-324, -5e-324]
        values = np.concatenate([rng.normal(size=40), edges])
        cases = ([values.reshape(17, 3)] if shape == "2-D"
                 else [np.full(shape, v) for v in values])
        for z in cases:
            with np.errstate(invalid="ignore"):
                reference = self._mask_form(z.copy())
                arg = z.copy()
                if mode == "alloc":
                    got = nc._sigmoid(arg)
                elif mode == "in place":
                    got = nc._sigmoid(arg, out=arg)
                    assert got is arg
                else:
                    out = np.full_like(z, 7.0)
                    scratch = np.full_like(z, 7.0) if mode == "out+scratch" else None
                    got = nc._sigmoid(arg, out=out, scratch=scratch)
                    assert got is out
                    assert arg.tobytes() == z.tobytes()
            assert isinstance(got, np.ndarray) and got.shape == z.shape
            assert got.tobytes() == reference.tobytes()

    def test_identity_linearity(self):
        g = nc.NetGraph(vertex_count=3, input_size=1, edges=((0, 2), (1, 2)),
                        constant=0, inputs=(1,), output=2)
        net = nc.NeuralNet(nc.IDENTITY, g,
                           nc.WeightVector.from_dict(g, {(0, 2): 0.0, (1, 2): 2.5}))
        for c in (-2.0, 0.0, 0.75):
            assert net.evaluate([c]) == pytest.approx(2.5 * c, abs=0)

    def test_two_two_one_sigmoid_hand_forward(self):
        # hand-set 2-2-1 net; expected value recomputed in-test with math.exp
        g = nc.NetGraph(
            vertex_count=6, input_size=2,
            edges=((0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4),
                   (3, 5), (4, 5)),
            constant=0, inputs=(1, 2), output=5,
        )
        w = {(0, 3): 0.1, (0, 4): -0.2, (0, 5): 0.3, (1, 3): 0.5, (1, 4): -0.7,
             (2, 3): 0.9, (2, 4): 0.4, (3, 5): 1.1, (4, 5): -1.3}
        net = nc.NeuralNet(nc.SIGMOID, g, nc.WeightVector.from_dict(g, w))
        x = (1.0, -1.0)

        def sig(z):
            return 1.0 / (1.0 + math.exp(-z))

        h1 = sig(0.1 + 0.5 * 1.0 + 0.9 * -1.0)
        h2 = sig(-0.2 + -0.7 * 1.0 + 0.4 * -1.0)
        expected = sig(0.3 + 1.1 * h1 + -1.3 * h2)
        assert net.evaluate(np.array(x)) == pytest.approx(expected, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(nc.DimensionMismatch):
            chain_net().evaluate([1.0])

    def test_order_invariance_50_random_dags(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            net = make_random_dag_net(rng, n_inputs=3, n_interior=7)
            x = 1.0 - 2.0 * rng.integers(0, 2, size=3).astype(float)
            comp_order = nc.topological_order(net.graph)
            alt = self._alternative_order(net.graph, rng)
            a = net.evaluate(x, order=comp_order)
            b = net.evaluate(x, order=alt)
            assert a == b  # bit-identical

    @staticmethod
    def _alternative_order(graph, rng):
        # Kahn with randomized ready-queue pops
        indeg = {v: 0 for v in range(graph.vertex_count)}
        fwd = {v: [] for v in range(graph.vertex_count)}
        for u, v in graph.edges:
            indeg[v] += 1
            fwd[u].append(v)
        sources = {graph.constant, *graph.inputs}
        ready = [v for v in range(graph.vertex_count) if indeg[v] == 0]
        order = []
        while ready:
            v = ready.pop(int(rng.integers(len(ready))))
            if v not in sources:
                order.append(v)
            for w in fwd[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        return order

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        net = make_random_dag_net(rng, n_inputs=4, n_interior=6)
        xs = 1.0 - 2.0 * rng.integers(0, 2, size=(20, 4)).astype(float)
        batch = net.evaluate_batch(xs)
        singles = [net.evaluate(x) for x in xs]
        assert np.allclose(batch, singles, rtol=0, atol=1e-12)


class TestGradient:
    def test_zero_weight_identity_chain_finite(self):
        g = nc.NetGraph(vertex_count=4, input_size=1,
                        edges=((0, 2), (1, 2), (2, 3), (0, 3)),
                        constant=0, inputs=(1,), output=3)
        net = nc.NeuralNet(nc.IDENTITY, g, nc.WeightVector.zeros(g))
        grad = net.gradient([1.0], 1.0, nc.SQUARED_ERROR)
        assert all(np.isfinite(v) for v in grad.values)

    def test_exact_fit_zero_gradient(self):
        g = nc.NetGraph(vertex_count=3, input_size=1, edges=((0, 2), (1, 2)),
                        constant=0, inputs=(1,), output=2)
        net = nc.NeuralNet(nc.IDENTITY, g,
                           nc.WeightVector.from_dict(g, {(0, 2): 0.0, (1, 2): 1.0}))
        grad = net.gradient([0.5], 0.5, nc.SQUARED_ERROR)
        assert np.allclose(grad.values, 0.0, atol=0)

    @pytest.mark.parametrize("activation", [nc.SIGMOID, nc.TANH])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(99 if activation is nc.SIGMOID else 100)
        for _ in range(5):
            net = make_random_dag_net(rng, n_inputs=4, n_interior=6,
                                      activation=activation, weight_scale=1.2)
            x = 1.0 - 2.0 * rng.integers(0, 2, size=4).astype(float)
            y = float(1 - 2 * rng.integers(0, 2))
            analytic, _ = net.gradient_array(x, y, nc.SQUARED_ERROR)
            numeric = finite_difference_gradient(net, x, y, nc.SQUARED_ERROR)
            assert gradient_scaled_error(analytic, numeric) <= 1e-6

    def test_bce_gradient_matches_fd(self):
        rng = np.random.default_rng(17)
        net = nc.build_mlp(5, [4], nc.RELU, out_activation=nc.SIGMOID,
                           init="he_uniform", rng=rng)
        x = rng.integers(0, 2, size=5).astype(float)
        analytic, _ = net.gradient_array(x, -1.0, nc.LOGISTIC_BCE)
        numeric = finite_difference_gradient(net, x, -1.0, nc.LOGISTIC_BCE, h=1e-6)
        assert gradient_scaled_error(analytic, numeric) <= 1e-5

    def test_generic_and_layered_paths_agree(self):
        rng = np.random.default_rng(3)
        net = nc.build_mlp(6, [5, 4], nc.TANH, init="he_uniform", rng=rng)
        assert net._plan() is not None
        x = 1.0 - 2.0 * rng.integers(0, 2, size=6).astype(float)
        fast, out_fast = net.gradient_array(x, 1.0, nc.SQUARED_ERROR)
        slow, out_slow = net._gradient_generic(x, 1.0, nc.SQUARED_ERROR)
        assert out_fast == pytest.approx(out_slow, abs=1e-12)
        assert np.allclose(fast, slow, atol=1e-12)

    @pytest.mark.parametrize("make", [
        lambda rng: nc.build_mlp(16, [8], nc.SIGMOID, init="he_uniform", rng=rng),
        lambda rng: nc.build_mlp(3, [1, 1], nc.SIGMOID, init="gaussian_fan_in", rng=rng),
        lambda rng: nc.build_mlp(1, [], nc.TANH, init="he_uniform", rng=rng),
        lambda rng: nc.build_mlp(0, [], nc.SIGMOID),
        lambda rng: nc.build_mlp(0, [3], nc.TANH),
        lambda rng: chain_net(w_const=0.3),
        lambda rng: labcli._pytorch_uniform_net(9, [16, 1, 4], seed=3),
        lambda rng: labcli._pytorch_uniform_net(5, [4], seed=4, activation=nc.SIGMOID),
    ])
    def test_view_plan_matches_generic_path(self, make):
        rng = np.random.default_rng(3)
        net = make(rng)
        # random weights, biases included, so every block is exercised
        net = net.with_weights(rng.uniform(-1.0, 1.0, size=net.n_edges))
        plan = net._plan()
        assert plan is not None
        # the blocks tile the edge vector
        covered = np.zeros(net.n_edges, dtype=int)
        for w_slice, shape, b_slice in plan.blocks:
            covered[w_slice] += 1
            assert covered[w_slice].size == shape[0] * shape[1]
            if b_slice is not None:
                covered[b_slice] += 1
        assert np.all(covered == 1)
        for loss in (nc.SQUARED_ERROR, nc.LOGISTIC_BCE):
            xs = rng.normal(size=(3, net.n_inputs))
            ys = rng.choice([-1.0, 1.0], size=3)
            batch, _ = net.gradient_batch(xs, ys, loss)
            for x, y, row in zip(xs, ys, batch):
                fast, out_fast = net.gradient_array(x, y, loss)
                slow, out_slow = net._gradient_generic(x, y, loss)
                assert out_fast == pytest.approx(out_slow, abs=1e-12)
                assert np.max(np.abs(fast - slow), initial=0.0) <= 1e-12
                assert np.max(np.abs(row - slow), initial=0.0) <= 1e-12
                assert net.evaluate(x) == pytest.approx(out_slow, abs=1e-12)

    def test_non_contiguous_layer_takes_per_vertex_path(self):
        # a layered 2-2-1 net numbered (hidden 3, 5; output 4) so that the
        # hidden biases, edges (0,3) and (0,5), are not one run of edge ids
        edges = ((0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 5), (3, 4), (5, 4))
        g = nc.NetGraph(vertex_count=6, input_size=2, edges=edges,
                        constant=0, inputs=(1, 2), output=4)
        net = nc.NeuralNet(nc.TANH, g, nc.WeightVector(g, np.linspace(-1.0, 1.0, 9)))
        assert net._plan() is None
        x = np.array([0.5, -1.0])
        analytic, out = net.gradient_array(x, 1.0)
        numeric = finite_difference_gradient(net, x, 1.0, nc.SQUARED_ERROR)
        assert gradient_scaled_error(analytic, numeric) <= 1e-5
        assert out == net.evaluate(x)

    def test_gradient_batch_matches_single(self):
        rng = np.random.default_rng(4)
        net = make_random_dag_net(rng, n_inputs=4, n_interior=5)
        xs = 1.0 - 2.0 * rng.integers(0, 2, size=(8, 4)).astype(float)
        ys = 1.0 - 2.0 * rng.integers(0, 2, size=8).astype(float)
        grads, outs = net.gradient_batch(xs, ys, nc.SQUARED_ERROR)
        for i in range(8):
            g, o = net.gradient_array(xs[i], ys[i], nc.SQUARED_ERROR)
            assert outs[i] == pytest.approx(o, abs=1e-12)
            assert np.allclose(grads[i], g, atol=1e-12)


class TestQuantization:
    def test_zero_fixed_point(self):
        spec = nc.QuantizationSpec(8, 4)
        assert spec.quantize(0.0) == 0.0

    def test_round_to_sixteenths(self):
        spec = nc.QuantizationSpec(8, 4)
        assert spec.quantize(0.33) == pytest.approx(0.3125, abs=0)

    def test_saturates_at_max(self):
        spec = nc.QuantizationSpec(8, 4)
        assert spec.quantize(1e9) == spec.max_value
        assert spec.quantize(-1e9) == -spec.max_value

    def test_ties_to_even(self):
        spec = nc.QuantizationSpec(8, 4)
        assert spec.quantize(0.09375) == 0.125  # 1.5 ticks -> 2
        assert spec.quantize(0.15625) == 0.125  # 2.5 ticks -> 2

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-100, max_value=100, allow_nan=False),
           st.integers(min_value=2, max_value=16), st.integers(min_value=1, max_value=8))
    def test_idempotent_and_bounded_error(self, value, total, frac):
        if frac >= total:
            frac = total - 1
        spec = nc.QuantizationSpec(total, frac)
        q = float(spec.quantize(value))
        assert float(spec.quantize(q)) == q
        if abs(value) <= spec.max_value:
            assert abs(q - value) <= spec.step / 2 + 1e-15

    def test_weight_vector_quantize(self):
        g = nc.NetGraph(vertex_count=2, input_size=0, edges=((0, 1),),
                        constant=0, inputs=(), output=1)
        w = nc.WeightVector.from_dict(g, {(0, 1): 0.33})
        q = nc.quantize(w, nc.QuantizationSpec(8, 4))
        assert q[(0, 1)] == 0.3125


class TestMonomialNet:
    def test_dictator_n4_k1(self):
        net = nc.build_monomial_net(4, 1)
        pairs = nc.monomial_readout_edges(net)
        assert len(pairs) == 4
        target = dict(pairs)[frozenset({1})]
        w = net.weights.as_dict()
        w[target] = 1.0
        forced = net.with_weights(nc.WeightVector.from_dict(net.graph, w))
        for j in range(16):
            x = 1.0 - 2.0 * np.array([(j >> i) & 1 for i in range(4)], float)
            assert forced.evaluate(x) == pytest.approx(x[1], abs=1e-9)

    def test_pair_n4_k2_exhaustive(self):
        net = nc.build_monomial_net(4, 2)
        pairs = nc.monomial_readout_edges(net)
        assert len(pairs) == 6
        target = dict(pairs)[frozenset({0, 2})]
        w = net.weights.as_dict()
        w[target] = 1.0
        forced = net.with_weights(nc.WeightVector.from_dict(net.graph, w))
        for j in range(16):
            x = 1.0 - 2.0 * np.array([(j >> i) & 1 for i in range(4)], float)
            assert forced.evaluate(x) == pytest.approx(x[0] * x[2], abs=1e-9)

    def test_zero_readout_constant(self):
        net = nc.build_monomial_net(6, 2)
        rng = np.random.default_rng(0)
        values = {net.evaluate(1.0 - 2.0 * rng.integers(0, 2, size=6).astype(float))
                  for _ in range(32)}
        assert values == {0.0}

    def test_budget_exceeded(self):
        with pytest.raises(nc.BudgetExceeded):
            nc.build_monomial_net(30, 15, max_units=1000)

    def test_exact_for_all_subsets_small(self):
        # every unit readout reproduces its monomial on the whole cube
        for n, k in ((5, 1), (5, 2), (6, 3), (8, 1), (8, 3)):
            net = nc.build_monomial_net(n, k)
            xs = 1.0 - 2.0 * (
                (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1
            ).astype(float)
            for subset, edge in nc.monomial_readout_edges(net):
                w = net.weights.as_dict()
                w[edge] = 1.0
                forced = net.with_weights(nc.WeightVector.from_dict(net.graph, w))
                expected = np.prod(xs[:, sorted(subset)], axis=1)
                assert np.allclose(forced.evaluate_batch(xs), expected, atol=1e-9)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        net = make_random_dag_net(rng, n_inputs=3, n_interior=5, activation=nc.TANH)
        restored = nc.net_from_json(nc.net_to_json(net))
        assert restored.graph == net.graph
        assert np.array_equal(restored.weights.values, net.weights.values)
        assert restored.activation == net.activation

    def test_quantized_decimal_strings(self):
        g = nc.NetGraph(vertex_count=2, input_size=0, edges=((0, 1),),
                        constant=0, inputs=(), output=1)
        net = nc.NeuralNet(nc.SIGMOID, g, nc.WeightVector.from_dict(g, {(0, 1): 0.33}))
        text = nc.net_to_json(net, quantization=nc.QuantizationSpec(8, 4))
        assert '"weight": "0.3125"' in text
        restored = nc.net_from_json(text)
        assert restored.weights[(0, 1)] == 0.3125

    def test_vertex_activation_round_trip(self):
        net = nc.build_monomial_net(3, 2)
        restored = nc.net_from_json(nc.net_to_json(net))
        assert restored.vertex_activations == net.vertex_activations
        x = np.array([1.0, -1.0, 1.0])
        assert restored.evaluate(x) == net.evaluate(x)


def _clamped_reference(net, xs, ys, probs, loss, b):
    """probs @ Psi_b(per-sample gradients), from the materialized matrix."""
    grads, _ = net.gradient_batch(xs, ys, loss)
    clamped = grads if math.isinf(b) else np.clip(grads, -b, b)
    return probs @ clamped, bool(np.any(np.abs(grads) > b)), probs @ np.abs(clamped)


def _assert_population_gradient_matches(net, xs, ys, probs, loss, b):
    ref, ref_hit, mass = _clamped_reference(net, xs, ys, probs, loss, b)
    got, hit = net.population_gradient(xs, ys, probs, loss, b)
    assert hit == ref_hit
    # relative to the summed magnitude sum_b p_b |Psi(g_b)|: the expectation
    # itself can cancel to ~0 while its summands do not
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(float(np.max(mass)), 1e-300)


class TestPopulationGradient:
    @settings(max_examples=150, deadline=None)
    @given(
        hidden=st.lists(st.integers(1, 6), min_size=1, max_size=2),
        act=st.sampled_from([nc.SIGMOID, nc.TANH, nc.RELU]),
        loss=st.sampled_from([nc.SQUARED_ERROR, nc.LOGISTIC_BCE]),
        n=st.integers(1, 5),
        rows=st.integers(1, 40),
        scale=st.floats(0.1, 4.0),
        chunk=st.sampled_from([1 << 22, 50]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_matches_clamped_per_sample_sum(self, hidden, act, loss, n, rows, scale,
                                            chunk, seed):
        rng = np.random.default_rng(seed)
        out_act = nc.SIGMOID if loss is nc.LOGISTIC_BCE else None
        net = nc.build_mlp(n, hidden, act, out_activation=out_act)
        net = net.with_weights(rng.uniform(-scale, scale, size=net.n_edges))
        assert net._plan() is not None
        xs = rng.normal(0.0, 1.5, size=(rows, n))
        ys = 1.0 - 2.0 * rng.integers(0, 2, size=rows).astype(float)
        probs = rng.random(rows) + 1e-3
        probs /= probs.sum()
        grads, _ = net.gradient_batch(xs, ys, loss)
        row_max = np.unique(np.max(np.abs(grads), axis=1))
        bs = [math.inf, 1.0]
        if row_max.size > 1:
            # fires on the rows with the largest entries, not on the smallest
            bs.append(float(row_max[0] + row_max[-1]) / 2.0)
        # blocks of 50 entries split the population and the materialized rows
        with mock.patch.object(nc, "_CHUNK_ELEMS", chunk):
            for b in bs:
                _assert_population_gradient_matches(net, xs, ys, probs, loss, b)

    @pytest.mark.parametrize("b", [math.inf, 1.0, 0.3])
    def test_per_vertex_fallback(self, b):
        rng = np.random.default_rng(21)
        net = nc.build_monomial_net(4, 2)
        assert net._plan() is None
        net = net.with_weights(rng.uniform(-1.5, 1.5, size=net.n_edges))
        xs = 1.0 - 2.0 * ((np.arange(16)[:, None] >> np.arange(4)[None, :]) & 1)
        ys = np.prod(xs, axis=1)
        probs = rng.random(16) + 0.1
        probs /= probs.sum()
        _assert_population_gradient_matches(net, xs, ys, probs, nc.SQUARED_ERROR, b)

    def test_clamp_fires_on_some_rows(self):
        rng = np.random.default_rng(2)
        net = nc.build_mlp(6, [5], nc.SIGMOID, init="he_uniform", rng=rng)
        xs = 1.0 - 2.0 * rng.integers(0, 2, size=(64, 6)).astype(float)
        ys = np.prod(xs, axis=1)
        probs = np.full(64, 1 / 64)
        grads, _ = net.gradient_batch(xs, ys, nc.SQUARED_ERROR)
        row_max = np.max(np.abs(grads), axis=1)
        b = float(np.median(row_max))
        assert np.any(row_max > b) and np.any(row_max <= b)
        _assert_population_gradient_matches(net, xs, ys, probs, nc.SQUARED_ERROR, b)

    def test_rejects_bad_shapes_and_range(self):
        net = nc.build_mlp(3, [2])
        xs, ys = np.ones((4, 3)), np.ones(4)
        with pytest.raises(nc.DimensionMismatch):
            net.population_gradient(xs, ys, np.full(3, 1 / 3))
        with pytest.raises(nc.DimensionMismatch):
            net.population_gradient(np.ones((4, 2)), ys, np.full(4, 0.25))
        with pytest.raises(ValueError):
            net.population_gradient(xs, ys, np.full(4, 0.25), overflow_b=0.0)


def _row_by_row_reference(net, xs, ys, probs, loss, b):
    """sum_i Psi_b-clamped p_i g_i, accumulated row by row from gradient_batch
    of one row at a time, and whether any entry of any g_i exceeded b."""
    expected = np.zeros(net.n_edges)
    hit = False
    for i in range(xs.shape[0]):
        grads, _ = net.gradient_batch(xs[i:i + 1], ys[i:i + 1], loss)
        part, row_hit = nc._clamped_sum(probs[i:i + 1], grads, b)
        expected += part
        hit = hit or row_hit
    return expected, hit


class TestPopulationWorkspaceOracle:
    """The layered population gradient (the workspace gd_run binds) equals
    gradient_batch + _clamped_sum bit for bit, in two regimes where the
    reference's summation order is the workspace's: blocks of one row, with
    power-of-two probabilities, for every activation and loss; and integer
    arithmetic, exact in any order, for one block of many rows."""

    @staticmethod
    def _case(act, loss, seed, rows=24, n=5):
        rng = np.random.default_rng(seed)
        # a ReLU output would leave most rows without a gradient
        out_act = nc.SIGMOID if loss is nc.LOGISTIC_BCE or act is nc.RELU else None
        net = nc.build_mlp(n, [6, 3], act, out_activation=out_act)
        net = net.with_weights(rng.uniform(-2.0, 2.0, size=net.n_edges))
        assert net._plan() is not None
        xs = 1.0 - 2.0 * rng.integers(0, 2, size=(rows, n)).astype(float)
        xs *= rng.uniform(0.5, 2.0, size=(rows, n))
        ys = 1.0 - 2.0 * rng.integers(0, 2, size=rows).astype(float)
        probs = 2.0 ** -rng.integers(3, 9, size=rows).astype(float)
        return net, xs, ys, probs

    @staticmethod
    def _clamp_range(grads, clamp):
        """B idle, firing on about half the rows, or on every row whose
        gradient is not zero (NaN rows fire at any B)."""
        row_max = np.max(np.abs(grads), axis=1)
        levels = np.unique(row_max[row_max > 0])
        assert levels.size > 2
        if clamp == "some rows":
            return float(levels[levels.size // 2])
        return {"idle": math.inf, "every row": float(levels[0]) / 2.0}.get(clamp, 0.5)

    @staticmethod
    def _assert_bits(got, hit, ref, ref_hit):
        # bit for bit, but for the sign of NaN, which depends on operand order
        assert hit == ref_hit
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == ref[~nan].tobytes()

    @pytest.mark.parametrize("act", [nc.SIGMOID, nc.TANH, nc.RELU])
    @pytest.mark.parametrize("loss", [nc.SQUARED_ERROR, nc.LOGISTIC_BCE])
    @pytest.mark.parametrize("clamp", ["idle", "some rows", "every row", "nan row"])
    def test_one_row_blocks(self, act, loss, clamp):
        net, xs, ys, probs = self._case(act, loss, seed=3)
        if clamp == "nan row":
            xs[7, 2] = math.nan
        b = self._clamp_range(net.gradient_batch(xs, ys, loss)[0], clamp)
        with mock.patch.object(nc, "_CHUNK_ELEMS", net.n_edges):
            assert len(nc._row_blocks(xs.shape[0], net.n_edges)) == xs.shape[0]
            got, hit = net.population_gradient(xs, ys, probs, loss, b)
        ref, ref_hit = _row_by_row_reference(net, xs, ys, probs, loss, b)
        if clamp == "nan row":
            assert np.all(np.isnan(got)) and np.all(np.isnan(ref))
        self._assert_bits(got, hit, ref, ref_hit)

    @pytest.mark.parametrize("clamp", ["idle", "some rows", "every row"])
    def test_integer_arithmetic_one_block(self, clamp):
        rng = np.random.default_rng(5)
        net = nc.build_mlp(4, [5, 3], nc.RELU, out_activation=nc.IDENTITY)
        net = net.with_weights(rng.integers(-3, 4, size=net.n_edges).astype(float))
        xs = 1.0 - 2.0 * ((np.arange(16)[:, None] >> np.arange(4)[None, :]) & 1)
        xs = np.vstack([xs, 2.0 * xs])
        ys = 1.0 - 2.0 * rng.integers(0, 2, size=32).astype(float)
        probs = np.full(32, 1.0 / 32)
        grads, _ = net.gradient_batch(xs, ys, nc.SQUARED_ERROR)
        b = self._clamp_range(grads, clamp)
        got, hit = net.population_gradient(xs, ys, probs, nc.SQUARED_ERROR, b)
        ref, ref_hit = nc._clamped_sum(probs, grads, b)
        self._assert_bits(got, hit, ref + 0.0, ref_hit)


def _stack_case(net, k_rows, seed):
    """K weight rows around the net's weights, K +-1 inputs and +-1 labels."""
    rng = np.random.default_rng(seed)
    weights = net.weights.values + rng.normal(0.0, 0.5, size=(k_rows, net.n_edges))
    xs = 1.0 - 2.0 * rng.integers(0, 2, size=(k_rows, net.n_inputs)).astype(float)
    ys = 1.0 - 2.0 * rng.integers(0, 2, size=k_rows).astype(float)
    return weights, xs, ys


class TestGradientStack:
    @pytest.mark.parametrize("k_rows", [1, 3, 20])
    @pytest.mark.parametrize("shape", ["16-8-1", "25-64x3-1"])
    @pytest.mark.parametrize("loss", [nc.SQUARED_ERROR, nc.LOGISTIC_BCE])
    def test_row_equals_gradient_array_bitwise(self, k_rows, shape, loss):
        rng = np.random.default_rng(31)
        if shape == "16-8-1":
            net = nc.build_mlp(16, [8], nc.SIGMOID, init="he_uniform", rng=rng)
        else:
            net = labcli._pytorch_uniform_net(25, [64, 64, 64], seed=32)
        weights, xs, ys = _stack_case(net, k_rows, seed=33 + k_rows)
        grads, outputs = net.gradient_stack(weights, xs, ys, loss)
        assert grads.shape == (k_rows, net.n_edges) and outputs.shape == (k_rows,)
        for k in range(k_rows):
            grad, output = net.with_weights(weights[k]).gradient_array(xs[k], ys[k], loss)
            assert grads[k].tobytes() == grad.tobytes()
            assert outputs[k] == output

    def test_row_does_not_depend_on_its_stack(self):
        net = nc.build_mlp(16, [8], nc.SIGMOID, init="he_uniform",
                           rng=np.random.default_rng(34))
        weights, xs, ys = _stack_case(net, 20, seed=35)
        whole, _ = net.gradient_stack(weights, xs, ys)
        for lo, hi in [(0, 1), (7, 10), (19, 20), (0, 20)]:
            part, _ = net.gradient_stack(weights[lo:hi], xs[lo:hi], ys[lo:hi])
            assert part.tobytes() == whole[lo:hi].tobytes()

    def test_per_vertex_net_stacks_row_by_row(self):
        net = nc.build_monomial_net(4, 2)
        weights, xs, ys = _stack_case(net, 3, seed=36)
        grads, outputs = net.gradient_stack(weights, xs, ys)
        for k in range(3):
            grad, output = net.with_weights(weights[k]).gradient_array(xs[k], ys[k])
            assert grads[k].tobytes() == grad.tobytes() and outputs[k] == output

    def test_shapes_checked(self):
        net = nc.build_mlp(3, [2], nc.SIGMOID)
        with pytest.raises(nc.DimensionMismatch):
            net.gradient_stack(np.zeros((2, net.n_edges)), np.ones((3, 3)), np.ones(3))
