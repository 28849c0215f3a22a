import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from paritylab import descent as dc
from paritylab import funcdist as fd
from paritylab import netcore as nc
from _util import make_random_dag_net


def one_edge_identity(w=1.0):
    # constant -> (pass-through) plus input -> out; only the input edge matters
    g = nc.NetGraph(vertex_count=3, input_size=1, edges=((0, 2), (1, 2)),
                    constant=0, inputs=(1,), output=2)
    return nc.NeuralNet(nc.IDENTITY, g,
                        nc.WeightVector.from_dict(g, {(0, 2): 0.0, (1, 2): w}))


def singleton_population(x=1.0, y=0.0):
    return dc.Population.from_samples([(np.array([x]), y)])


class TestClampPsi:
    def test_values(self):
        assert dc.clamp_psi(3.0, 2.0) == 2.0
        assert dc.clamp_psi(-5.0, 2.0) == -2.0
        assert dc.clamp_psi(0.5, 2.0) == 0.5

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False, width=32),
           st.floats(min_value=1e-6, max_value=1e6))
    def test_bounded_and_idempotent(self, x, b):
        clamped = float(dc.clamp_psi(x, b))
        assert abs(clamped) <= b
        assert float(dc.clamp_psi(clamped, b)) == clamped

    def test_infinite_range_is_identity(self):
        assert dc.clamp_psi(1e300, math.inf) == 1e300


class TestGdStep:
    def test_hand_derivative(self):
        # d/dw (w*x - y)^2 = 2(wx - y)x = 2 at w=1, x=1, y=0; step 0.5 -> w'=0
        net = one_edge_identity(w=1.0)
        stepped = dc.gd_step(net, singleton_population(), nc.SQUARED_ERROR, gamma=0.5)
        assert stepped.weights[(1, 2)] == pytest.approx(0.0, abs=1e-15)

    def test_overflow_clamp_active(self):
        net = one_edge_identity(w=1.0)
        stepped = dc.gd_step(net, singleton_population(), nc.SQUARED_ERROR,
                             gamma=0.5, overflow_b=0.1)
        assert stepped.weights[(1, 2)] == pytest.approx(0.95, abs=1e-15)

    def test_zero_gamma_is_identity(self):
        net = one_edge_identity(w=1.0)
        stepped = dc.gd_step(net, singleton_population(), nc.SQUARED_ERROR, gamma=0.0)
        assert np.array_equal(stepped.weights.values, net.weights.values)

    def test_empty_population(self):
        with pytest.raises(dc.EmptyPopulation):
            dc.Population.from_samples([])

    def test_grid_budget_refused(self):
        with pytest.raises(nc.BudgetExceeded):
            dc.Population.uniform_grid(21, lambda xs: np.ones(xs.shape[0]))

    def test_reduction_consistency(self):
        # population step equals the average of per-sample steps, pre-noise
        rng = np.random.default_rng(8)
        for _ in range(5):
            net = make_random_dag_net(rng, n_inputs=3, n_interior=5)
            xs = 1.0 - 2.0 * rng.integers(0, 2, size=(6, 3)).astype(float)
            ys = 1.0 - 2.0 * rng.integers(0, 2, size=6).astype(float)
            population = dc.Population.from_samples(list(zip(xs, ys)))
            pop_net = dc.gd_step(net, population, nc.SQUARED_ERROR, gamma=0.3)
            updates = np.zeros(net.n_edges)
            for x, y in zip(xs, ys):
                stepped = dc.sgd_step(net, (x, y), nc.SQUARED_ERROR, gamma=0.3)
                updates += stepped.weights.values - net.weights.values
            manual = net.weights.values + updates / len(ys)
            assert np.allclose(pop_net.weights.values, manual, atol=1e-12)


class TestGdRun:
    def test_zero_steps(self):
        net = one_edge_identity()
        cfg = dc.DescentConfig(gamma=0.1, steps=0)
        final, log = dc.gd_run(net, singleton_population(), nc.SQUARED_ERROR, cfg)
        assert np.array_equal(final.weights.values, net.weights.values)
        assert log.steps == []

    def test_noise_accumulation_variance(self):
        # gamma = 0: weight_t = weight_0 + sum of t gaussian draws
        net = one_edge_identity(w=0.0)
        population = singleton_population()
        t, var = 10, 0.25
        finals = []
        for seed in range(3000):
            cfg = dc.DescentConfig(gamma=0.0, steps=t,
                                   noise=dc.NoiseSpec.gaussian(var), seed=seed)
            final, _ = dc.gd_run(net, population, nc.SQUARED_ERROR, cfg,
                                 record_steps=False)
            finals.append(final.weights[(1, 2)])
        sample_var = float(np.var(finals))
        assert sample_var == pytest.approx(t * var, rel=0.05)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        net = make_random_dag_net(rng, n_inputs=2, n_interior=4)
        population = dc.Population.uniform_grid(2, lambda xs: np.prod(xs, axis=1))
        cfg = dc.DescentConfig(gamma=0.05, steps=7,
                               noise=dc.NoiseSpec.gaussian(0.01), seed=42)
        a, _ = dc.gd_run(net, population, nc.SQUARED_ERROR, cfg)
        b, _ = dc.gd_run(net, population, nc.SQUARED_ERROR, cfg)
        assert np.array_equal(a.weights.values, b.weights.values)

    def test_coord_budget_rejected(self):
        cfg = dc.DescentConfig(gamma=0.1, steps=1, coord_budget=1)
        with pytest.raises(ValueError):
            dc.gd_run(one_edge_identity(), singleton_population(),
                      nc.SQUARED_ERROR, cfg)

    def test_gaussian_zero_equals_none(self):
        net = one_edge_identity(w=0.5)
        population = singleton_population()
        cfg0 = dc.DescentConfig(gamma=0.1, steps=5, noise=dc.NoiseSpec.none(), seed=3)
        cfg1 = dc.DescentConfig(gamma=0.1, steps=5,
                                noise=dc.NoiseSpec.gaussian(0.0), seed=3)
        a, _ = dc.gd_run(net, population, nc.SQUARED_ERROR, cfg0)
        b, _ = dc.gd_run(net, population, nc.SQUARED_ERROR, cfg1)
        assert np.array_equal(a.weights.values, b.weights.values)


class TestSgdStep:
    def test_matches_gd_on_singleton(self):
        net = one_edge_identity(w=1.0)
        via_sgd = dc.sgd_step(net, (np.array([1.0]), 0.0), nc.SQUARED_ERROR, gamma=0.5)
        via_gd = dc.gd_step(net, singleton_population(), nc.SQUARED_ERROR, gamma=0.5)
        assert np.array_equal(via_sgd.weights.values, via_gd.weights.values)

    def test_weight_projection(self):
        net = one_edge_identity(w=0.9)
        # gamma 0 keeps w' = 0.9 before projection at B = 0.5
        stepped = dc.sgd_step(net, (np.array([1.0]), 0.0), nc.SQUARED_ERROR,
                              gamma=0.0, weight_clamp_b=0.5)
        assert stepped.weights[(1, 2)] == 0.5

    def test_quantized_storage(self):
        net = one_edge_identity(w=0.33)
        stepped = dc.sgd_step(net, (np.array([1.0]), 0.0), nc.SQUARED_ERROR,
                              gamma=0.0, quantization=nc.QuantizationSpec(8, 4))
        assert stepped.weights[(1, 2)] == 0.3125


class TestSgdRun:
    def test_zero_steps_identity(self):
        net = one_edge_identity(w=0.7)
        src = fd.SampleSource.null(fd.UniformInputs(1), seed=0)
        cfg = dc.DescentConfig(gamma=0.1, steps=0)
        final, _ = dc.sgd_run(net, src, nc.SQUARED_ERROR, cfg)
        assert np.array_equal(final.weights.values, net.weights.values)

    def test_initial_perturbation_applied(self):
        net = one_edge_identity(w=0.0)
        src = fd.SampleSource.null(fd.UniformInputs(1), seed=0)
        cfg = dc.DescentConfig(gamma=0.0, steps=0, init_perturb_variance=1.0, seed=5)
        final, _ = dc.sgd_run(net, src, nc.SQUARED_ERROR, cfg)
        assert not np.array_equal(final.weights.values, net.weights.values)

    def test_training_error_decreases_on_average(self):
        # dictator target, 10 seeds: late accuracy bits beat early ones
        early, late = [], []
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            net = nc.build_mlp(4, [6], nc.TANH, init="he_uniform", rng=rng)
            f = fd.ParitySubset(4, 0b0001)
            src = fd.SampleSource.planted(f, fd.UniformInputs(4), seed=seed)
            cfg = dc.DescentConfig(gamma=0.1, steps=400, seed=seed)
            _, log = dc.sgd_run(net, src, nc.SQUARED_ERROR, cfg, record_steps=False)
            bits = np.array(log.acc_bits, dtype=float)
            early.append(bits[:25].mean())
            late.append(bits[-100:].mean())
        assert np.mean(late) > np.mean(early)
        assert np.mean(late) > 0.9

    def test_uniform_noise_masks_updates(self):
        # saturating net keeps |gamma * grad| <= D << C; conditioned on landing
        # inside [-(C-D), C-D], the per-step weight delta is uniform
        gamma, c_half = 0.01, 0.5
        d_bound = gamma * 1.0  # |dL/dw| <= 2|sigma - y| * sigma' <= 1
        g = nc.NetGraph(vertex_count=2, input_size=0, edges=((0, 1),),
                        constant=0, inputs=(), output=1)
        net = nc.NeuralNet(nc.SIGMOID, g, nc.WeightVector.from_dict(g, {(0, 1): 0.0}))
        src = fd.SampleSource.null(fd.PointMassInput(()), seed=9)
        cfg = dc.DescentConfig(gamma=gamma, steps=100_000,
                               noise=dc.NoiseSpec.uniform(c_half), seed=2)
        _, log = dc.sgd_run(net, src, nc.SQUARED_ERROR, cfg, record_steps=True)
        weights = [net.weights[(0, 1)]] + [
            report.changed_edges[0][1] if report.changed_edges else None
            for report in log.steps
        ]
        # reconstruct the per-step deltas from consecutive stored weights
        deltas = []
        prev = weights[0]
        for w in weights[1:]:
            cur = prev if w is None else w
            deltas.append(cur - prev)
            prev = cur
        deltas = np.array(deltas)
        inner = c_half - d_bound
        kept = deltas[np.abs(deltas) <= inner]
        assert len(kept) > 90_000
        stat = scipy.stats.kstest(kept, scipy.stats.uniform(-inner, 2 * inner).cdf)
        assert stat.pvalue > 0.01

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        net = make_random_dag_net(rng, n_inputs=3, n_interior=5)
        f = fd.ParitySubset(3, 0b101)
        cfg = dc.DescentConfig(gamma=0.1, steps=50,
                               noise=dc.NoiseSpec.gaussian(0.01), seed=77)
        a, _ = dc.sgd_run(net, fd.SampleSource.planted(f, fd.UniformInputs(3), seed=5),
                          nc.SQUARED_ERROR, cfg, record_steps=False)
        b, _ = dc.sgd_run(net, fd.SampleSource.planted(f, fd.UniformInputs(3), seed=5),
                          nc.SQUARED_ERROR, cfg, record_steps=False)
        assert np.array_equal(a.weights.values, b.weights.values)

    def test_layered_plan_derived_once_over_epochs(self):
        # three epochs as the grid-parity runner makes them: each sgd_run
        # starts from the net the previous one returned
        net = nc.build_mlp(9, [16, 8], nc.RELU, out_activation=nc.SIGMOID, init="he_uniform",
                           rng=np.random.default_rng(1))
        src = fd.SampleSource.planted(fd.ParitySubset(9, 0b101), fd.UniformInputs(9), seed=2)
        cfg = dc.DescentConfig(gamma=0.1, steps=50, seed=3)
        with mock.patch.object(nc, "_level_plan", wraps=nc._level_plan) as derive:
            for _ in range(3):
                net, _ = dc.sgd_run(net, src, nc.SQUARED_ERROR, cfg, record_steps=False)
        assert derive.call_count == 1

    def test_weight_range_invariant(self):
        rng = np.random.default_rng(6)
        net = make_random_dag_net(rng, n_inputs=3, n_interior=5, weight_scale=3.0)
        f = fd.ParitySubset(3, 0b011)
        src = fd.SampleSource.planted(f, fd.UniformInputs(3), seed=1)
        cfg = dc.DescentConfig(gamma=0.5, steps=60, weight_clamp_b=1.25,
                               noise=dc.NoiseSpec.gaussian(0.2), seed=3)
        final, log = dc.sgd_run(net, src, nc.SQUARED_ERROR, cfg)
        assert np.all(np.abs(final.weights.values) <= 1.25)
        for report in log.steps:
            for _, w in report.changed_edges:
                assert abs(w) <= 1.25


class TestAccuracyBit:
    def test_label_read_in_output_space(self):
        net = nc.build_mlp(2, [2], nc.TANH, out_activation=nc.SIGMOID)
        # squared loss on 0/1 bits: the bit is compared at the sigmoid's cut 1/2
        assert dc._acc_bit(net, 0.7, 1.0, nc.SQUARED_ERROR)
        assert dc._acc_bit(net, 0.3, 0.0, nc.SQUARED_ERROR)
        assert not dc._acc_bit(net, 0.7, 0.0, nc.SQUARED_ERROR)
        # +-1 labels read as before: predict_label(output) == y
        for out in (0.3, 0.7):
            for y in (-1.0, 1.0):
                for loss in (nc.SQUARED_ERROR, nc.LOGISTIC_BCE):
                    want = nc.predict_label(out, nc.SIGMOID, loss) == y
                    assert dc._acc_bit(net, out, y, loss) == want

    def test_grid_parity_bits_track_train_accuracy(self):
        # a 9-16-1 net on 200 3x3 images with 0/1 squared-loss targets, in the
        # seed layout of run_gridparity_seed(seed=3); before the labels were
        # read in output space the last epoch's bit rate was 0.125 against a
        # train accuracy of 0.685
        from paritylab import labcli

        s = 3 * 7919
        imgs, labels = fd.grid_dataset(fd.GridDatasetSpec(3, 200, seed=s + 1))
        xs, ys = imgs.astype(float), labels.astype(float)
        net = labcli._pytorch_uniform_net(9, [16], seed=s + 3)
        source = labcli._EpochPairSource(xs, ys, seed=s + 4)
        # gamma 0: one epoch of bits is exactly the fixed net's train accuracy
        frozen, log = dc.sgd_run(net, source.with_seed(s + 4), nc.SQUARED_ERROR,
                                 dc.DescentConfig(gamma=0.0, steps=200),
                                 record_steps=False)
        accuracy = np.mean((frozen.evaluate_batch(xs) >= 0.5) == (labels == 1))
        assert np.mean(log.acc_bits) == accuracy
        cfg = dc.DescentConfig(gamma=0.1, steps=2000, seed=s + 5)
        final, log = dc.sgd_run(net, source, nc.SQUARED_ERROR, cfg, record_steps=False)
        accuracy = np.mean((final.evaluate_batch(xs) >= 0.5) == (labels == 1))
        assert accuracy > 0.6
        assert abs(np.mean(log.acc_bits[-200:]) - accuracy) < 0.15


class TestCoordinateDescent:
    def test_budget_required(self):
        cfg = dc.DescentConfig(gamma=0.1, steps=1)
        src = fd.SampleSource.null(fd.UniformInputs(1), seed=0)
        with pytest.raises(ValueError):
            dc.cd_run(one_edge_identity(), src, nc.SQUARED_ERROR, cfg)

    @pytest.mark.parametrize("rule", ["topk", "randomk"])
    def test_budget_slack_equals_sgd(self, rule):
        rng = np.random.default_rng(4)
        net = make_random_dag_net(rng, n_inputs=3, n_interior=5)
        f = fd.ParitySubset(3, 0b110)
        mk = lambda: fd.SampleSource.planted(f, fd.UniformInputs(3), seed=8)
        cfg_cd = dc.DescentConfig(gamma=0.2, steps=40, coord_budget=net.n_edges + 5,
                                  coord_rule=rule, noise=dc.NoiseSpec.gaussian(0.01),
                                  seed=9)
        cfg_sgd = dc.DescentConfig(gamma=0.2, steps=40,
                                   noise=dc.NoiseSpec.gaussian(0.01), seed=9)
        a, _ = dc.cd_run(net, mk(), nc.SQUARED_ERROR, cfg_cd)
        b, _ = dc.sgd_run(net, mk(), nc.SQUARED_ERROR, cfg_sgd)
        assert np.array_equal(a.weights.values, b.weights.values)

    def test_randomk_run_digest(self):
        # pinned before the coordinate stream became lazy: the same streams,
        # coordinates, weights and step reports
        net = nc.build_mlp(6, [4], nc.SIGMOID, init="he_uniform", rng=np.random.default_rng(0))
        cfg = dc.DescentConfig(gamma=0.25, steps=60, coord_budget=2, coord_rule="randomk",
                               quantization=nc.QuantizationSpec(8, 4),
                               noise=dc.NoiseSpec.gaussian(0.01), seed=5)
        src = fd.SampleSource.planted(fd.ParitySubset(6, 0b101), fd.UniformInputs(6), seed=3)
        final, log = dc.cd_run(net, src, nc.SQUARED_ERROR, cfg)
        digest = hashlib.sha256(final.weights.values.tobytes())
        digest.update(json.dumps([r.to_json() for r in log.steps]).encode())
        assert digest.hexdigest() == (
            "fd5c1b09ada2073d2ce5ee6c6656be39146346e83c8d8969ac8a097138bbf5ac")

    def test_topk_picks_largest_gradient(self):
        # identity net, out = w_c + w1 x1 + w2 x2 at w = 0 -> out 0, y = -1
        # grads: const 2, x1 edge 2*x1 = 6, x2 edge 2*x2 = 1
        g = nc.NetGraph(vertex_count=4, input_size=2,
                        edges=((0, 3), (1, 3), (2, 3)),
                        constant=0, inputs=(1, 2), output=3)
        net = nc.NeuralNet(nc.IDENTITY, g, nc.WeightVector.zeros(g))
        src = fd.SampleSource.planted(
            fd.ConstMinus(2), fd.PointMassInput((3.0, 0.5)), seed=0
        )
        cfg = dc.DescentConfig(gamma=0.1, steps=1, coord_budget=1, seed=0)
        final, log = dc.cd_run(net, src, nc.SQUARED_ERROR, cfg)
        changed = log.steps[0].changed_edges
        assert len(changed) == 1
        assert changed[0][0] == (1, 3)
        untouched = [e for e in g.edges if e != (1, 3)]
        assert all(final.weights[e] == 0.0 for e in untouched)

    def test_budget_invariant_100_steps(self):
        rng = np.random.default_rng(12)
        net = make_random_dag_net(rng, n_inputs=4, n_interior=6)
        f = fd.ParitySubset(4, 0b1001)
        src = fd.SampleSource.planted(f, fd.UniformInputs(4), seed=3)
        cfg = dc.DescentConfig(gamma=0.3, steps=100, coord_budget=2,
                               coord_rule="randomk", seed=21)
        _, log = dc.cd_run(net, src, nc.SQUARED_ERROR, cfg)
        assert len(log.steps) == 100
        assert all(len(r.changed_edges) <= 2 for r in log.steps)

    def test_quantized_coordinate_updates(self):
        net = one_edge_identity(w=0.0)
        src = fd.SampleSource.planted(fd.ConstMinus(1), fd.PointMassInput((1.0,)), seed=0)
        cfg = dc.DescentConfig(gamma=0.165, steps=1, coord_budget=1, seed=0,
                               quantization=nc.QuantizationSpec(8, 4))
        final, _ = dc.cd_run(net, src, nc.SQUARED_ERROR, cfg)
        for w in final.weights.values:
            assert (w / (2 ** -4)) == int(w / (2 ** -4))


class TestNoiseStreams:
    def test_pairwise_independence(self):
        # ~10^6 draws; every pairwise correlation estimated from enough pairs
        # that |r| < 0.01 discriminates real dependence from noise
        spec = dc.NoiseSpec.gaussian(1.0)
        n_edges, n_steps = 3, 300_000
        draws = np.empty((n_steps, n_edges))
        for t in range(1, n_steps + 1):
            draws[t - 1] = spec.draw(dc._stream(77, dc._STREAM_NOISE, t), n_edges)
        corr = np.corrcoef(draws, rowvar=False)
        off_diag = corr[~np.eye(n_edges, dtype=bool)]
        assert np.max(np.abs(off_diag)) < 0.01
        # and across consecutive steps, per edge
        lag = np.array([
            np.corrcoef(draws[:-1, j], draws[1:, j])[0, 1] for j in range(n_edges)
        ])
        assert np.max(np.abs(lag)) < 0.01

    def test_overflow_invariant(self):
        # contributions entering the update are clamped even for huge gradients
        net = one_edge_identity(w=100.0)
        population = dc.Population.from_samples([(np.array([50.0]), 0.0)])
        expected, overflow = net.population_gradient(population.xs, population.ys,
                                                     population.probs, nc.SQUARED_ERROR, 1.0)
        assert overflow
        assert np.max(np.abs(expected)) <= 1.0


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            dc.DescentConfig(gamma=-1.0, steps=1)
        with pytest.raises(ValueError):
            dc.DescentConfig(gamma=0.1, steps=-1)
        with pytest.raises(ValueError):
            dc.DescentConfig(gamma=0.1, steps=1, coord_budget=0)
        with pytest.raises(ValueError):
            dc.DescentConfig(gamma=0.1, steps=1, coord_rule="bogus")
        with pytest.raises(ValueError):
            dc.NoiseSpec("gaussian", variance=-1.0)


class TestRunLogFormat:
    def test_jsonl_record_shape(self):
        import io
        import json as js

        rng = np.random.default_rng(1)
        net = make_random_dag_net(rng, n_inputs=2, n_interior=4)
        src = fd.SampleSource.planted(fd.ParitySubset(2, 0b11),
                                      fd.UniformInputs(2), seed=0)
        cfg = dc.DescentConfig(gamma=0.1, steps=3, seed=0)
        _, log = dc.sgd_run(net, src, nc.SQUARED_ERROR, cfg)
        buf = io.StringIO()
        log.write_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 3
        record = js.loads(lines[0])
        assert set(record) == {"t", "changed", "max_update", "overflow_hit",
                               "acc_bit"}
        assert all(set(c) == {"edge", "w"} for c in record["changed"])


def _topk_reference(grad, budget):
    """The top-k rule as a loop over one gradient: largest |g| first, ties by
    ascending index, NaN last."""
    order = np.lexsort((np.arange(grad.shape[0]), -np.abs(grad)))
    return np.sort(order[:budget])


class TestBudgetedStep:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 2.0, -2.0, math.nan]),
                        min_size=1, max_size=9),
        rows=st.integers(1, 4),
        budget=st.integers(1, 10),
        seed=st.integers(0, 10),
    )
    def test_topk_rows_match_the_loop(self, values, rows, budget, seed):
        rng = np.random.default_rng(seed)
        grads = np.array([rng.permutation(values) for _ in range(rows)])
        sel = dc._select_coords(grads, budget, "topk", range(rows), 1)
        for k in range(rows):
            assert sel[k].tolist() == _topk_reference(grads[k], budget).tolist()

    @pytest.mark.parametrize("rule", ["topk", "randomk"])
    @pytest.mark.parametrize("noise", [dc.NoiseSpec.none(), dc.NoiseSpec.gaussian(0.05),
                                       dc.NoiseSpec.uniform(0.2)])
    def test_row_is_its_own_single_step(self, rule, noise):
        """Row k of a K-row step equals the step of row k alone, with its seed."""
        rng = np.random.default_rng(7)
        cfg = dc.DescentConfig(gamma=0.3, steps=1, coord_budget=2, coord_rule=rule,
                               weight_clamp_b=0.75, noise=noise,
                               quantization=nc.QuantizationSpec(8, 4))
        w = cfg.quantization.quantize(rng.uniform(-1, 1, size=(5, 12)))
        grads = rng.normal(size=(5, 12))
        seeds = [11, 12, 13, 14, 15]
        sel, new, update = dc.budgeted_step(w, grads, cfg, seeds, 4)
        assert sel.shape == new.shape == update.shape == (5, 2)
        for k in range(5):
            one = dc.budgeted_step(w[k:k + 1], grads[k:k + 1], cfg, seeds[k:k + 1], 4)
            assert [a.tobytes() for a in one] == [a[k:k + 1].tobytes()
                                                  for a in (sel, new, update)]
            assert np.all(np.abs(new[k]) <= 0.75)


# ---------------------------------------------------------------------------
# single-sample runs pinned byte for byte
# ---------------------------------------------------------------------------

def _pinned_net(kind):
    rng = np.random.default_rng(4)
    if kind == "sigmoid":
        return nc.build_mlp(6, [5, 4], nc.SIGMOID, init="he_uniform", rng=rng)
    if kind == "relu":
        return nc.build_mlp(6, [8, 8], nc.RELU, out_activation=nc.SIGMOID,
                            init="he_uniform", rng=rng)
    if kind == "dag":
        return make_random_dag_net(rng, n_inputs=6, n_interior=7)
    return nc.build_monomial_net(6, 2)


# name: (net, loss, config knobs); every case runs as SGD, top-k CD and random-k CD
_PINNED_CASES = {
    "sigmoid_squared_gaussian": ("sigmoid", nc.SQUARED_ERROR,
                                 {"noise": dc.NoiseSpec.gaussian(0.01)}),
    "relu_bce_uniform": ("relu", nc.LOGISTIC_BCE, {"noise": dc.NoiseSpec.uniform(0.05)}),
    "sigmoid_clamp": ("sigmoid", nc.SQUARED_ERROR,
                      {"weight_clamp_b": 0.75, "noise": dc.NoiseSpec.gaussian(0.01)}),
    "relu_quantized": ("relu", nc.LOGISTIC_BCE, {"quantization": nc.QuantizationSpec(8, 4)}),
    "per_vertex": ("dag", nc.SQUARED_ERROR, {"noise": dc.NoiseSpec.gaussian(0.01)}),
}
_PINNED_RUNS = [(case, algo) for case in _PINNED_CASES
                for algo in ("sgd", "cd_topk", "cd_randomk")]


def _pinned_run(case, algo, steps=80, record_steps=False):
    kind, loss, knobs = _PINNED_CASES[case]
    net = _pinned_net(kind)
    src = fd.SampleSource.planted(fd.ParitySubset(6, 0b100101), fd.UniformInputs(6), seed=8)
    if algo == "sgd":
        cfg = dc.DescentConfig(gamma=0.3, steps=steps, seed=6, **knobs)
        return dc.sgd_run(net, src, loss, cfg, record_steps=record_steps)
    cfg = dc.DescentConfig(gamma=0.3, steps=steps, seed=6, coord_budget=3,
                           coord_rule=algo[3:], **knobs)
    return dc.cd_run(net, src, loss, cfg, record_steps=record_steps)


def _readout_run(record_steps=False):
    net = _pinned_net("monomial")
    readout = [net.graph.edge_index()[e] for _, e in nc.monomial_readout_edges(net)]
    src = fd.SampleSource.planted(fd.ParitySubset(6, 0b000110), fd.UniformInputs(6), seed=8)
    cfg = dc.DescentConfig(gamma=0.03, steps=80, seed=6, noise=dc.NoiseSpec.gaussian(1e-4))
    return dc.sgd_run(net, src, nc.SQUARED_ERROR, cfg, record_steps=record_steps,
                      trainable=readout)


def _run_digest(final, log):
    digest = hashlib.sha256(final.weights.values.tobytes())
    digest.update(np.array(log.acc_bits, dtype=bool).tobytes())
    digest.update(json.dumps([r.to_json() for r in log.steps]).encode())
    return digest.hexdigest()


class TestPinnedSingleSampleRuns:
    """Final weights, accuracy bits and step reports, pinned before the
    single-sample loop updated one weight buffer in place.  The per_vertex
    sgd and cd_randomk pins were re-taken when DAG nets moved onto gather
    levels, whose dense sums add in another order (final weights within
    4e-15 relative of the old ones, accuracy bits unchanged)."""

    PINNED = {
        "sigmoid_squared_gaussian/sgd":
            "5f599672d9b5627b96b6cd92e348c40496d699ee407246dfb2c63b09dfee2c54",
        "sigmoid_squared_gaussian/cd_topk":
            "5a7e26859314126d9cd48344ef0d3916dd558e59bafb79e219792d925d4e6cfc",
        "sigmoid_squared_gaussian/cd_randomk":
            "33903e32692275a4af2f7907c243d20f3e8827044286fb3bad292558be16b2b1",
        "relu_bce_uniform/sgd":
            "5609a75600c1593a20753043cccc039e23982a576cdf7ad4b078cf426bd5ab2d",
        "relu_bce_uniform/cd_topk":
            "b067c1aaea87ae87a31d272745a65567151f084c84e8f9ac62c4a7bbe1686161",
        "relu_bce_uniform/cd_randomk":
            "90918db9c8042a257592e2106b6df1e955e3a860a6a0fddabb33a42a5899dce5",
        "sigmoid_clamp/sgd":
            "c3a5194a62cda38c9d3ac3faa16bccadae5af7e8936e4ccb7bb9174c485afc0f",
        "sigmoid_clamp/cd_topk":
            "e7e53c7d26df7c887b979aa998dbfb2fc4f28ecec7d119b6a971235a035522f9",
        "sigmoid_clamp/cd_randomk":
            "b9c3098e9db7a9108c39619032742b8a66291e2ba7dc80b625f2fa4868065052",
        "relu_quantized/sgd":
            "489dae8c0da3ac0c337c08e2687bb63c2b9b0865112cb11a76d808767ef288ba",
        "relu_quantized/cd_topk":
            "bd0d64f5800ac4cfa45a3e99036614d166727eaba5c0066e9ad7a827e85df283",
        "relu_quantized/cd_randomk":
            "4a643f350690d01ea25c4a59f4b1b0b0ffd69d5dd049c07198fcca573a160d1a",
        "per_vertex/sgd":
            "0e4d88785b8439183574ded9e9e3a204ea4acbdc08ce8b69b47076231118972e",
        "per_vertex/cd_topk":
            "9f8f363d956c17d1cc5cb8758e985e8ac0897b915a36fae092c0431fcf98bdf4",
        "per_vertex/cd_randomk":
            "e70be4b45c709604913dc313b921e707576589586de8bcd9721c9585d77786c4",
        "monomial_readout/sgd":
            "eeab5e9d5d3e086bd572ed1b5b76ed3c7ef4ce03a93a72b28ecb4e22eb86a5c8",
        "sigmoid_clamp/sgd/steps":
            "6ac5d269be234d07f663ff3af61a3a345199b2f2530a3a01b2c5c22e7c0c5de4",
        "relu_bce_uniform/cd_topk/steps":
            "cfebff23e3238a4b27bc00c229d2c56edb3399099e4f20981b167a0478c36c2f",
    }

    @pytest.mark.parametrize("case, algo", _PINNED_RUNS)
    def test_run(self, case, algo):
        assert _run_digest(*_pinned_run(case, algo)) == self.PINNED[f"{case}/{algo}"]

    def test_cases_cover_both_gradient_paths(self):
        assert _pinned_net("sigmoid")._plan().n_cols is None
        assert _pinned_net("relu")._plan().n_cols is None
        assert _pinned_net("dag")._plan().n_cols is not None
        assert _pinned_net("monomial")._plan().n_cols is not None

    def test_trainable_readout(self):
        assert _run_digest(*_readout_run()) == self.PINNED["monomial_readout/sgd"]

    @pytest.mark.parametrize("case, algo", [("sigmoid_clamp", "sgd"),
                                            ("relu_bce_uniform", "cd_topk")])
    def test_step_reports(self, case, algo):
        digest = _run_digest(*_pinned_run(case, algo, steps=30, record_steps=True))
        assert digest == self.PINNED[f"{case}/{algo}/steps"]


class TestOwnedWeightBuffer:
    """The single-sample loop updates one weight buffer that it owns."""

    def test_layered_run_wraps_its_weights_at_most_twice(self):
        net = nc.build_mlp(6, [8, 8], nc.RELU, out_activation=nc.SIGMOID,
                           init="he_uniform", rng=np.random.default_rng(1))
        src = fd.SampleSource.planted(fd.ParitySubset(6, 0b101), fd.UniformInputs(6), seed=2)
        cfg = dc.DescentConfig(gamma=0.1, steps=200, noise=dc.NoiseSpec.gaussian(0.01),
                               seed=3)
        with mock.patch.object(nc.NeuralNet, "with_weights", autospec=True,
                               side_effect=nc.NeuralNet.with_weights) as wrap:
            dc.sgd_run(net, src, nc.SQUARED_ERROR, cfg, record_steps=False)
        assert wrap.call_count <= 2

    @pytest.mark.parametrize("case, algo", _PINNED_RUNS)
    def test_callers_net_untouched_and_result_read_only(self, case, algo):
        net = _pinned_net(_PINNED_CASES[case][0])
        values = net.weights.values
        before = values.tobytes()
        with mock.patch(f"{__name__}._pinned_net", return_value=net):
            final, _ = _pinned_run(case, algo, steps=20)
        assert net.weights.values is values and values.tobytes() == before
        assert not values.flags.writeable
        assert not final.weights.values.flags.writeable
        assert not np.shares_memory(final.weights.values, values)

    @pytest.mark.parametrize("case, algo", _PINNED_RUNS)
    def test_runs_from_one_net_do_not_alias(self, case, algo):
        net = _pinned_net(_PINNED_CASES[case][0])
        with mock.patch(f"{__name__}._pinned_net", return_value=net):
            (a, log_a), (b, log_b) = _pinned_run(case, algo), _pinned_run(case, algo)
        assert a.weights.values.tobytes() == b.weights.values.tobytes()
        assert log_a.acc_bits == log_b.acc_bits
        assert not np.shares_memory(a.weights.values, b.weights.values)

    @pytest.mark.parametrize("case", list(_PINNED_CASES))
    def test_sgd_step_is_step_one_of_sgd_run(self, case):
        kind, loss, knobs = _PINNED_CASES[case]
        net = _pinned_net(kind)
        cfg = dc.DescentConfig(gamma=0.3, steps=1, seed=6, **knobs)
        src = fd.SampleSource.planted(fd.ParitySubset(6, 0b100101), fd.UniformInputs(6), seed=8)
        run, _ = dc.sgd_run(net, src, loss, cfg)
        sample = fd.SampleSource.planted(fd.ParitySubset(6, 0b100101), fd.UniformInputs(6),
                                         seed=8).next_sample()
        delta = None
        if cfg.noise.is_active:
            delta = cfg.noise.draw(dc._stream(cfg.seed, dc._STREAM_NOISE, 1), net.n_edges)
        step = dc.sgd_step(net.with_weights(dc.prepare_initial_weights(net, cfg)), sample,
                           loss, cfg.gamma, cfg.weight_clamp_b, delta, cfg.quantization)
        assert step.weights.values.tobytes() == run.weights.values.tobytes()


class TestDiverged:
    @pytest.mark.parametrize("algorithm", ["sgd", "cd"])
    def test_sample_runs_raise(self, algorithm):
        net = nc.build_mlp(6, [8], nc.RELU, init="he_uniform", rng=np.random.default_rng(0))
        src = fd.SampleSource.planted(fd.ParitySubset(6, 0b11), fd.UniformInputs(6), seed=1)
        budget = 3 if algorithm == "cd" else None
        cfg = dc.DescentConfig(gamma=1e308, steps=50, coord_budget=budget)
        run = dc.cd_run if algorithm == "cd" else dc.sgd_run
        with pytest.raises(dc.Diverged, match=f"^{algorithm}: non-finite weights after 50 steps"):
            run(net, src, nc.SQUARED_ERROR, cfg, record_steps=False)

    def test_gd_run_raises(self):
        net = one_edge_identity(w=1.0)
        cfg = dc.DescentConfig(gamma=1e308, steps=5)
        with pytest.raises(dc.Diverged, match="^gd: non-finite weights after 5 steps"):
            dc.gd_run(net, singleton_population(x=3.0, y=0.0), nc.SQUARED_ERROR, cfg)

    def test_finite_large_steps_pass(self):
        net = one_edge_identity(w=1.0)
        cfg = dc.DescentConfig(gamma=1e3, steps=3)
        final, _ = dc.gd_run(net, singleton_population(), nc.SQUARED_ERROR, cfg)
        assert np.all(np.isfinite(final.weights.values))


# ---------------------------------------------------------------------------
# population GD runs pinned byte for byte
# ---------------------------------------------------------------------------

def _pinned_gd_net(kind):
    rng = np.random.default_rng(9)
    if kind == "sigmoid":
        return nc.build_mlp(8, [16], nc.SIGMOID, init="he_uniform", rng=rng)
    if kind == "two_hidden":
        return nc.build_mlp(8, [8, 4], nc.SIGMOID, init="he_uniform", rng=rng)
    if kind == "relu":
        return nc.build_mlp(8, [12], nc.RELU, out_activation=nc.SIGMOID,
                            init="he_uniform", rng=rng)
    return make_random_dag_net(rng, n_inputs=8, n_interior=7)


# name: (net, loss, config knobs); each B fires on some rows of the first step
_PINNED_GD_CASES = {
    "sigmoid_gaussian": ("sigmoid", nc.SQUARED_ERROR,
                         {"overflow_b": 0.3, "noise": dc.NoiseSpec.gaussian(0.01)}),
    "sigmoid_clamp_quantized": ("sigmoid", nc.SQUARED_ERROR,
                                {"overflow_b": 0.3, "weight_clamp_b": 0.75,
                                 "quantization": nc.QuantizationSpec(8, 4),
                                 "noise": dc.NoiseSpec.gaussian(0.01)}),
    "two_hidden": ("two_hidden", nc.SQUARED_ERROR,
                   {"overflow_b": 0.5, "noise": dc.NoiseSpec.gaussian(0.01)}),
    "relu_bce_uniform": ("relu", nc.LOGISTIC_BCE,
                         {"overflow_b": 1.0, "noise": dc.NoiseSpec.uniform(0.05)}),
    "per_vertex": ("dag", nc.SQUARED_ERROR,
                   {"overflow_b": 0.3, "noise": dc.NoiseSpec.gaussian(0.01)}),
}


def _pinned_gd_run(case, record_steps=True, steps=40):
    kind, loss, knobs = _PINNED_GD_CASES[case]
    population = dc.Population.uniform_grid(8, fd.ParitySubset(8, 0b10110101).evaluate_batch)
    cfg = dc.DescentConfig(gamma=0.5, steps=steps, seed=6, **knobs)
    return dc.gd_run(_pinned_gd_net(kind), population, loss, cfg, record_steps=record_steps)


class TestPinnedGdRuns:
    """Final weights and step reports of population GD, pinned before gd_run
    updated one weight buffer through one population workspace.  The
    per_vertex pin was re-taken when DAG nets moved onto gather levels
    (final weights within 6e-16 relative of the old ones)."""

    PINNED = {
        "sigmoid_gaussian":
            "da5132f64013fe96b494fed4b0e685b83dd9ae55feb6538bdd03d4f19b6320dd",
        "sigmoid_clamp_quantized":
            "4f864106c4102e7cc7a0b1e9a6f5cd54df4465b44c7412694edaaa5e2c4198e5",
        "two_hidden":
            "375eae10ca1527fed7990541226102985d55d4ba9e4ba77beeaa8410b3d52771",
        "relu_bce_uniform":
            "2bba5900473fd5ca6682ec5a472db8c3e77082f99311869e2c86346327e506dc",
        "per_vertex":
            "af7365f093dd7a9cc1cc6ec7c3512a0b3c9dca5b11bae39f3a9aecb2aa857349",
        "sigmoid_gaussian/blocks":
            "f0c22cb35ac50f99301dbce4adfefd8d65b6f61bd196632bfe21de4157094aef",
    }

    @pytest.mark.parametrize("case", list(_PINNED_GD_CASES))
    def test_run(self, case):
        final, log = _pinned_gd_run(case)
        assert _run_digest(final, log) == self.PINNED[case]
        hits = [r.overflow_hit for r in log.steps]
        assert any(hits) and len(log.steps) == 40
        quiet, _ = _pinned_gd_run(case, record_steps=False)
        assert quiet.weights.values.tobytes() == final.weights.values.tobytes()

    def test_population_in_blocks(self):
        # 161 edges, so blocks of 50 rows: the 256-row grid in 6 blocks
        with mock.patch.object(nc, "_CHUNK_ELEMS", 161 * 50):
            digest = _run_digest(*_pinned_gd_run("sigmoid_gaussian"))
        assert digest == self.PINNED["sigmoid_gaussian/blocks"]

    def test_cases_cover_both_gradient_paths(self):
        assert _pinned_gd_net("sigmoid").n_edges == 161
        assert _pinned_gd_net("two_hidden")._plan().n_cols is None
        assert _pinned_gd_net("dag")._plan().n_cols is not None
