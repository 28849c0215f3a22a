import dataclasses
import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paritylab import descent as dc
from paritylab import funcdist as fd
from paritylab import netcore as nc
from paritylab import sla


def small_net(n=6, hidden=(4,), seed=0):
    return nc.build_mlp(n, list(hidden), nc.SIGMOID, init="he_uniform",
                        rng=np.random.default_rng(seed))


def quant_config(steps=25, budget=1, seed=5, gamma=0.25, noise=None):
    return dc.DescentConfig(
        gamma=gamma, steps=steps, coord_budget=budget,
        quantization=nc.QuantizationSpec(8, 4), seed=seed,
        noise=noise or dc.NoiseSpec.none(),
    )


class TestRunTrace:
    def test_constant_machine(self):
        machine = sla.constant_sla(symbol="idle")
        src = fd.SampleSource.null(fd.UniformInputs(3), seed=0)
        trace = sla.run_trace(machine, src, 10)
        assert set(trace.symbols) == {"idle"}
        assert len(trace) == 10

    def test_echo_machine(self):
        machine = sla.SlaStateMachine(alphabet_size=2,
                                      update=lambda z, hist: z[1])
        src = fd.SampleSource.null(fd.UniformInputs(2), seed=1)
        trace = sla.run_trace(machine, src, 20)
        for (x, y), w in trace.pairs:
            assert w == y

    def test_counting_ones_binomial(self):
        machine = sla.SlaStateMachine(
            alphabet_size=math.inf,
            update=lambda z, hist: (hist[-1] if hist else 0) + (z[1] == 1.0),
        )
        t = 10_000
        src = fd.SampleSource.null(fd.UniformInputs(2), seed=2)
        trace = sla.run_trace(machine, src, t)
        count = trace.symbols[-1]
        assert abs(count - t / 2) <= 3 * math.sqrt(t * 0.25)

    def test_seed_reproduces_trace(self):
        machine = sla.SlaStateMachine(alphabet_size=2, update=lambda z, h: z[1])
        src = fd.SampleSource.null(fd.UniformInputs(4), seed=7)
        a = sla.run_trace(machine, src, 15, seed=99)
        b = sla.run_trace(machine, src.with_seed(0), 15, seed=99)
        assert a.symbols == b.symbols


class TestSgdAsSla:
    def test_requires_budget_and_quantization(self):
        net = small_net()
        with pytest.raises(sla.UnboundedAlphabet):
            sla.sgd_as_sla(net, nc.SQUARED_ERROR,
                           dc.DescentConfig(gamma=0.1, steps=5, coord_budget=1))
        with pytest.raises(sla.UnboundedAlphabet):
            sla.sgd_as_sla(net, nc.SQUARED_ERROR,
                           dc.DescentConfig(gamma=0.1, steps=5,
                                            quantization=nc.QuantizationSpec(8, 4)))

    def test_alphabet_size_arithmetic(self):
        # k=1, 8-bit weights, |E|=100 -> 2 * (1 + 100 * 256) possible symbols
        g_edges = [(0, v) for v in range(1, 100)] + [(v, 100) for v in range(100)]
        graph = nc.NetGraph(vertex_count=101, input_size=0,
                            edges=tuple(g_edges), constant=0, inputs=(), output=100)
        net = nc.NeuralNet(nc.SIGMOID, graph, nc.WeightVector.zeros(graph))
        assert net.n_edges == 199
        cfg = dc.DescentConfig(gamma=0.1, steps=1, coord_budget=1,
                               quantization=nc.QuantizationSpec(8, 4))
        machine = sla.sgd_as_sla(net, nc.SQUARED_ERROR, cfg)
        assert machine.alphabet_size == 2 * (1 + 199 * 256)

    def test_replay_round_trip(self):
        net = small_net()
        cfg = quant_config(steps=30, budget=2)
        machine = sla.sgd_as_sla(net, nc.SQUARED_ERROR, cfg)
        f = fd.ParitySubset(6, 0b101)
        src = fd.SampleSource.planted(f, fd.UniformInputs(6), seed=3)
        trace = sla.run_trace(machine, src, 30)
        final_cd, _ = dc.cd_run(net, src.with_seed(3), nc.SQUARED_ERROR, cfg)
        replayed = machine.replay(trace.symbols)
        assert np.array_equal(replayed.weights.values, final_cd.weights.values)

    def test_zero_gamma_emits_empty_changed_lists(self):
        net = small_net()
        cfg = quant_config(steps=10, gamma=0.0)
        machine = sla.sgd_as_sla(net, nc.SQUARED_ERROR, cfg)
        src = fd.SampleSource.null(fd.UniformInputs(6), seed=1)
        trace = sla.run_trace(machine, src, 10)
        for changed, _ in trace.symbols:
            assert changed == ()

    def test_budget_respected_in_symbols(self):
        net = small_net()
        cfg = quant_config(steps=40, budget=3)
        machine = sla.sgd_as_sla(net, nc.SQUARED_ERROR, cfg)
        src = fd.SampleSource.null(fd.UniformInputs(6), seed=4)
        trace = sla.run_trace(machine, src, 40)
        assert all(len(changed) <= 3 for changed, _ in trace.symbols)

    def test_noisy_trace_matches_cd_run(self):
        net = small_net()
        cfg = quant_config(steps=20, budget=2, noise=dc.NoiseSpec.gaussian(0.05))
        machine = sla.sgd_as_sla(net, nc.SQUARED_ERROR, cfg)
        f = fd.ParitySubset(6, 0b011)
        src = fd.SampleSource.planted(f, fd.UniformInputs(6), seed=9)
        trace = sla.run_trace(machine, src, 20)
        final_cd, log = dc.cd_run(net, src.with_seed(9), nc.SQUARED_ERROR, cfg)
        assert np.array_equal(machine.replay(trace.symbols).weights.values,
                              final_cd.weights.values)
        assert [bool(s[1]) for s in trace.symbols] == log.acc_bits


def _two_traces(cfg, steps):
    """A machine's traces on two sources, and one spare sample per step."""
    net = small_net()
    traces = []
    for seed in (3, 4):
        src = fd.SampleSource.planted(fd.ParitySubset(6, 0b101), fd.UniformInputs(6), seed=seed)
        traces.append(sla.run_trace(sla.sgd_as_sla(net, nc.SQUARED_ERROR, cfg), src, steps))
    spare = fd.SampleSource.null(fd.UniformInputs(6), seed=5)
    return net, traces, [spare.next_sample() for _ in range(steps + 1)]


_PURITY_CFG = quant_config(steps=12, budget=2, noise=dc.NoiseSpec.gaussian(0.05))
_PURITY_CFG_RANDOMK = dc.DescentConfig(
    gamma=0.25, steps=12, coord_budget=2, coord_rule="randomk",
    quantization=nc.QuantizationSpec(8, 4), seed=6)


class TestSgdAsSlaCache:
    @settings(max_examples=40, deadline=None)
    @given(
        cfg=st.sampled_from([_PURITY_CFG, _PURITY_CFG_RANDOMK]),
        queries=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 12), st.booleans(), st.booleans()),
            min_size=1, max_size=30),
    )
    def test_update_is_a_function_of_sample_and_history(self, cfg, queries):
        """Histories that extend, rewind, switch traces, or hold equal but
        distinct symbol objects all get a fresh machine's answer."""
        net, traces, spare = _two_traces(cfg, 12)
        machine = sla.sgd_as_sla(net, nc.SQUARED_ERROR, cfg)
        for which, length, copied, fresh_sample in queries:
            history = traces[which].symbols[:length]
            if copied:
                history = tuple((tuple(changed), acc) for changed, acc in history)
            z = spare[length] if fresh_sample else traces[which].pairs[min(length, 11)][0]
            want = sla.sgd_as_sla(net, nc.SQUARED_ERROR, cfg).update(z, history)
            assert machine.update(z, history) == want

    def test_interleaved_traces_match_separate_runs(self):
        net, traces, _ = _two_traces(_PURITY_CFG, 12)
        machine = sla.sgd_as_sla(net, nc.SQUARED_ERROR, _PURITY_CFG)
        histories = [[], []]
        for t in range(12):
            for which in (0, 1):
                z = traces[which].pairs[t][0]
                histories[which].append(machine.update(z, tuple(histories[which])))
        assert [tuple(h) for h in histories] == [tr.symbols for tr in traces]

    def test_threads_sharing_a_machine_get_their_own_traces(self):
        net, traces, _ = _two_traces(_PURITY_CFG, 12)
        machine = sla.sgd_as_sla(net, nc.SQUARED_ERROR, _PURITY_CFG)
        results = [None] * 4

        def worker(i):
            runs = set()
            for _ in range(60):
                trace, history = traces[i % 2], []
                for t in range(12):
                    history.append(machine.update(trace.pairs[t][0], tuple(history)))
                runs.add(tuple(history))
            results[i] = runs

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [{traces[i % 2].symbols} for i in range(4)]

    def test_layered_plan_derived_once_per_trace(self):
        # the machine binds its gradient to the plan when it is built
        net = small_net()
        src = fd.SampleSource.null(fd.UniformInputs(6), seed=2)
        with mock.patch.object(nc, "_level_plan", wraps=nc._level_plan) as derive:
            machine = sla.sgd_as_sla(net, nc.SQUARED_ERROR, quant_config(steps=200))
            sla.run_trace(machine, src, 200)
        assert derive.call_count == 1


class TestGf2SolverSla:
    def test_learns_planted_parity(self):
        machine = sla.gf2_solver_sla(8)
        f = fd.ParitySubset(8, 0b1100101)
        src = fd.SampleSource.planted(f, fd.UniformInputs(8), seed=0)
        trace = sla.run_trace(machine, src, 40)
        late_bits = [s[1] for s in trace.symbols[-15:]]
        assert all(late_bits)

    def test_null_stream_stays_near_chance(self):
        machine = sla.gf2_solver_sla(8)
        src = fd.SampleSource.null(fd.UniformInputs(8), seed=1)
        trace = sla.run_trace(machine, src, 400)
        rate = np.mean([s[1] for s in trace.symbols[200:]])
        assert 0.3 <= rate <= 0.7


class TestDistinguishExperiment:
    def test_constant_sla_ci_contains_half(self):
        report = sla.distinguish_experiment(
            sla.constant_sla(), fd.ParityUniform(6), steps=10, trials=40, seed=0
        )
        assert report.ci_low <= 0.5 <= report.ci_high
        assert report.accuracy == 0.5

    def test_solver_distinguishes(self):
        report = sla.distinguish_experiment(
            sla.gf2_solver_sla(10), fd.ParityUniform(10), steps=40, trials=40,
            statistic="prediction_count", seed=1,
        )
        assert report.accuracy >= 0.95

    def test_final_acc_bit_statistic(self):
        report = sla.distinguish_experiment(
            sla.gf2_solver_sla(8), fd.ParityUniform(8), steps=40, trials=30,
            statistic="final_acc_bit", seed=2,
        )
        # planted final bit is almost surely 1; null is a coin: expect a real edge
        assert report.accuracy >= 0.6

    def test_needs_enough_trials(self):
        with pytest.raises(ValueError):
            sla.distinguish_experiment(sla.constant_sla(), fd.ParityUniform(4),
                                       steps=5, trials=5, seed=0)

    def test_cap_requires_pred(self):
        with pytest.raises(ValueError):
            sla.distinguish_experiment(sla.constant_sla(), fd.ConstantMixture(5, 0.1),
                                       steps=5, trials=20, seed=0)
        report = sla.distinguish_experiment(
            sla.constant_sla(), fd.ConstantMixture(5, 0.1), steps=5, trials=20,
            seed=0, pred_value=0.05,
        )
        assert report.theoretical_cap == min(1.0, 0.5 + 0.05 ** (1 / 24))

    def test_report_json(self):
        report = sla.distinguish_experiment(
            sla.constant_sla(), fd.ParityUniform(5), steps=5, trials=20, seed=3
        )
        doc = report.to_json()
        assert doc["trials_per_hypothesis"] == 20
        assert 0.0 <= doc["ci_low"] <= doc["ci_high"] <= 1.0


class TestAccuracyEval:
    def test_constant_net_vs_balanced_function(self):
        g = nc.NetGraph(vertex_count=3, input_size=1, edges=((0, 2), (1, 2)),
                        constant=0, inputs=(1,), output=2)
        net = nc.NeuralNet(nc.SIGMOID, g,
                           nc.WeightVector.from_dict(g, {(0, 2): 5.0, (1, 2): 0.0}))
        f = fd.ParitySubset(1, 0b1)  # balanced on {+1,-1}
        assert sla.accuracy_eval(net, f) == 0.5

    def test_forced_monomial_net_is_exact(self):
        net = nc.build_monomial_net(6, 2)
        pairs = nc.monomial_readout_edges(net)
        subset, edge = pairs[3]
        w = net.weights.as_dict()
        w[edge] = 1.0
        forced = net.with_weights(nc.WeightVector.from_dict(net.graph, w))
        f = fd.MonomialSubset(6, fd.subset_to_mask(subset), 2)
        assert sla.accuracy_eval(forced, f) == 1.0

    def test_random_net_vs_random_parities_near_half(self):
        rng = np.random.default_rng(4)
        net = nc.build_mlp(10, [8], nc.SIGMOID, init="he_uniform", rng=rng)
        accs = [
            sla.accuracy_eval(net, fd.ParityUniform(10).draw(rng))
            for _ in range(20)
        ]
        assert abs(np.mean(accs) - 0.5) <= 0.05

    def test_monte_carlo_path(self):
        rng = np.random.default_rng(5)
        net = nc.build_mlp(14, [6], nc.SIGMOID, init="he_uniform", rng=rng)
        f = fd.ParitySubset(14, 0b11)
        acc = sla.accuracy_eval(net, f, trials=2000, seed=1)
        assert 0.0 <= acc <= 1.0


class TestBounds:
    def test_gd_zero_steps(self):
        assert sla.bound_gd(0.1, 1.0, 0, 100, 10, 0.01) == 0.5

    def test_gd_formula_point(self):
        value = sla.bound_gd(0.1, 1.0, 100, 1000, 40, 0.01 ** 2)
        assert value == pytest.approx(0.51203, abs=5e-6)

    def test_gd_clamps_at_one(self):
        assert sla.bound_gd(1e9, 1.0, 100, 1000, 10, 0.01) == 1.0

    def test_gd_monotonicity(self):
        base = dict(gamma=0.01, b=1.0, steps=50, m=200, n=30, sigma2=0.04)
        ref = sla.bound_gd(**base)
        for key, factor, direction in (
            ("gamma", 2.0, 1), ("b", 2.0, 1), ("steps", 2, 1), ("m", 2, 1),
            ("n", 2, -1), ("sigma2", 2.0, -1),
        ):
            bumped = dict(base)
            bumped[key] = bumped[key] * factor
            delta = sla.bound_gd(**bumped) - ref
            assert delta * direction >= 0

    def test_sgd_zero_case(self):
        assert sla.bound_sgd(0, 10, 1.0, 0.1, 8, 0.0) == 0.5

    def test_sgd_p_additivity(self):
        assert sla.bound_sgd(0, 10, 1.0, 0.1, 8, 0.1) == pytest.approx(0.7)

    def test_sgd_elaborated_transcription(self):
        t, m, b, gamma, n, p = 3, 5, 1.2, 0.01, 16, 0.02
        expected = 0.5 + 2 * p + t * (
            360 * m ** 4 * b ** 2 * gamma ** 2 / (math.pi * n)
            + 7 * (math.e / 4) ** (n / 4)
        )
        assert sla.bound_sgd_elaborated(t, m, b, gamma, n, p) == pytest.approx(
            min(1.0, expected), abs=1e-15
        )

    def test_crosspred_bound_provisional(self):
        value = sla.bound_gd_crosspred(2.0 ** (-10), 0.01, 1.0, 100, 5, 0.1)
        assert value == pytest.approx(
            min(1.0, 0.5 + 0.01 * 1.0 * (2.0 ** (-10)) ** 0.25 * 10 * 5 / 0.1)
        )


class TestTvEmpirical:
    def test_identical_zero(self):
        xs = np.random.default_rng(0).normal(size=(500, 3))
        assert sla.tv_empirical(xs, xs, bin_width=0.5) == 0.0

    def test_disjoint_one(self):
        assert sla.tv_empirical(np.zeros(100), np.ones(100) + 9, bin_width=1.0) == 1.0

    def test_bernoulli_analytic(self):
        rng = np.random.default_rng(1)
        a = (rng.random(100_000) < 0.5).astype(float)
        b = np.ones(100_000)
        tv = sla.tv_empirical(a, b, bin_width=1.0)
        assert tv == pytest.approx(0.5, abs=0.01)

    def test_coarsening_monotone(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, size=2000)
        b = rng.normal(0.4, 1.0, size=2000)
        fine = sla.tv_empirical(a, b, bin_width=0.25)
        coarse = sla.tv_empirical(a, b, bin_width=0.5)
        coarser = sla.tv_empirical(a, b, bin_width=1.0)
        assert coarser <= coarse <= fine

    def test_equal_seed_pipelines_are_zero(self):
        def run(seed):
            net = small_net(seed=1)
            cfg = quant_config(steps=15, seed=seed)
            src = fd.SampleSource.planted(fd.ParitySubset(6, 0b111),
                                          fd.UniformInputs(6), seed=2)
            final, _ = dc.cd_run(net, src, nc.SQUARED_ERROR, cfg)
            return final.weights.values

        assert sla.tv_empirical(run(3)[None, :], run(3)[None, :], bin_width=0.01) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(fd.DimensionMismatch):
            sla.tv_empirical(np.zeros((5, 2)), np.zeros((5, 3)), bin_width=1.0)

    def test_exactly_one_binning(self):
        with pytest.raises(ValueError):
            sla.tv_empirical(np.zeros(5), np.zeros(5))
        with pytest.raises(ValueError):
            sla.tv_empirical(np.zeros(5), np.zeros(5), bin_width=1.0, kd_depth=2)

    def test_kd_depth_path(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, size=(3000, 2))
        b = rng.normal(2.0, 1, size=(3000, 2))
        tv = sla.tv_empirical(a, b, kd_depth=4)
        assert 0.5 <= tv <= 1.0


class TestTraceAudit:
    def test_jsonl_dump(self, tmp_path):
        import io, json as js
        machine = sla.gf2_solver_sla(4)
        src = fd.SampleSource.planted(fd.ParitySubset(4, 0b101),
                                      fd.UniformInputs(4), seed=0)
        trace = sla.run_trace(machine, src, 6)
        buf = io.StringIO()
        trace.write_jsonl(buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 6
        rec = js.loads(lines[0])
        assert set(rec) == {"t", "x", "y", "w"} and rec["t"] == 1


def _lockstep_sources(kinds, n=6, first_seed=100):
    """One source per entry of kinds: a planted parity (True) or a null stream."""
    f = fd.ParitySubset(n, 0b101101)
    return [
        fd.SampleSource.planted(f, fd.UniformInputs(n), seed=first_seed + i) if planted
        else fd.SampleSource.null(fd.UniformInputs(n), seed=first_seed + i)
        for i, planted in enumerate(kinds)
    ]


def _same_pairs(a, b):
    """Two traces hold the same (z, symbol) pairs, x arrays compared bitwise."""
    return len(a) == len(b) and all(
        za[0].tobytes() == zb[0].tobytes() and za[1] == zb[1] and wa == wb
        for (za, wa), (zb, wb) in zip(a.pairs, b.pairs)
    )


_NOISES = {
    "none": dc.NoiseSpec.none(),
    "gaussian": dc.NoiseSpec.gaussian(0.05),
    "uniform": dc.NoiseSpec.uniform(0.2),
}


class TestRunTraces:
    @settings(max_examples=30, deadline=None)
    @given(
        kinds=st.lists(st.booleans(), min_size=1, max_size=6),
        rule=st.sampled_from(["topk", "randomk"]),
        budget=st.integers(1, 3),
        noise=st.sampled_from(sorted(_NOISES)),
        clamp=st.sampled_from([math.inf, 0.75]),
        gammas=st.lists(st.sampled_from([0.25, 0.5]), min_size=6, max_size=6),
    )
    def test_lockstep_equals_run_trace(self, kinds, rule, budget, noise, clamp, gammas):
        """Every machine's (z, symbol) pairs are run_trace's, whether the
        machines form one stack or several (configs that differ in gamma)."""
        net = small_net()
        steps = 15
        configs = [
            dc.DescentConfig(gamma=gammas[i], steps=steps, coord_budget=budget,
                             coord_rule=rule, weight_clamp_b=clamp,
                             quantization=nc.QuantizationSpec(8, 4),
                             noise=_NOISES[noise], seed=40 + i)
            for i in range(len(kinds))
        ]
        machines = [sla.sgd_as_sla(net, nc.SQUARED_ERROR, cfg) for cfg in configs]
        calls = []
        counted = [
            dataclasses.replace(m, update=lambda z, h, m=m: calls.append(1) or m.update(z, h))
            for m in machines
        ]
        lockstep = sla.run_traces(counted, _lockstep_sources(kinds), steps)
        assert calls == []  # the stacked machines never ran update
        separate = [sla.run_trace(m, s, steps)
                    for m, s in zip(machines, _lockstep_sources(kinds))]
        assert all(_same_pairs(a, b) for a, b in zip(lockstep, separate))

    def test_lockstep_trace_replays_to_cd_run(self):
        net = small_net()
        cfg = quant_config(steps=30, budget=2, noise=dc.NoiseSpec.gaussian(0.05))
        machines = [sla.sgd_as_sla(net, nc.SQUARED_ERROR, dataclasses.replace(cfg, seed=s))
                    for s in (5, 6, 7)]
        traces = sla.run_traces(machines, _lockstep_sources([True, False, True]), 30)
        for machine, trace, src in zip(machines, traces, _lockstep_sources([True, False, True])):
            final, _ = dc.cd_run(net, src, nc.SQUARED_ERROR, machine.budgeted_sgd.config)
            assert np.array_equal(machine.replay(trace.symbols).weights.values,
                                  final.weights.values)

    def test_machines_that_do_not_stack_run_through_run_trace(self):
        echo = sla.SlaStateMachine(alphabet_size=2, update=lambda z, h: z[1])
        net = small_net()
        machines = [sla.gf2_solver_sla(6), sla.constant_sla(), echo,
                    sla.sgd_as_sla(net, nc.SQUARED_ERROR, quant_config(seed=1)),
                    sla.gf2_solver_sla(6)]
        kinds = [True, False, True, False, False]
        with mock.patch.object(sla, "run_trace", wraps=sla.run_trace) as sequential:
            traces = sla.run_traces(machines, _lockstep_sources(kinds), 20)
        assert sequential.call_count == 4
        separate = [sla.run_trace(m, s, 20)
                    for m, s in zip(machines, _lockstep_sources(kinds))]
        assert all(_same_pairs(a, b) for a, b in zip(traces, separate))

    def test_shared_source_draws_trace_after_trace(self):
        net = small_net()
        machines = [sla.sgd_as_sla(net, nc.SQUARED_ERROR, quant_config(seed=s)) for s in (1, 2)]
        shared = fd.SampleSource.null(fd.UniformInputs(6), seed=3)
        traces = sla.run_traces(machines, [shared, shared], 10)
        again = fd.SampleSource.null(fd.UniformInputs(6), seed=3)
        separate = [sla.run_trace(m, again, 10) for m in machines]
        assert all(_same_pairs(a, b) for a, b in zip(traces, separate))

    def test_needs_one_source_per_machine(self):
        with pytest.raises(ValueError):
            sla.run_traces([sla.constant_sla()], [], 5)
