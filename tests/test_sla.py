import dataclasses
import math
import sys
import threading
import weakref
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

    def test_kept_histories_stay_the_prefix_they_were(self):
        """update's past symbols are a view that later steps do not grow:
        a history kept at step t still holds exactly the first t - 1
        symbols when the run is over, and cannot be written."""
        kept = []

        def update(z, history):
            kept.append(history)
            return (len(history), z[1])

        src = fd.SampleSource.null(fd.UniformInputs(3), seed=4)
        trace = sla.run_trace(sla.SlaStateMachine(alphabet_size=math.inf, update=update),
                              src, 30)
        for t, history in enumerate(kept, start=1):
            assert len(history) == t - 1
            assert tuple(history) == trace.symbols[:t - 1]
            assert history[:] == trace.symbols[:t - 1]
            assert history[::-2] == trace.symbols[:t - 1][::-2]
            if history:
                assert history[-1] == trace.symbols[t - 2] and history[0] == trace.symbols[0]
            with pytest.raises(IndexError):
                history[t - 1]
            with pytest.raises(TypeError):
                history[0] = None


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
        # the one-row stack's gradient reads the plan the net derived once
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

    def test_eliminates_only_the_first_n_coordinates(self):
        """On a source wider than n the system lives on x[:n]: the trace is
        that of the truncated samples, and it recovers a parity of them."""
        machine = sla.gf2_solver_sla(5)
        f = fd.ParitySubset(9, 0b10110)
        trace = sla.run_trace(machine, fd.SampleSource.planted(f, fd.UniformInputs(9), seed=4), 60)
        truncated: list = []
        for (x, y), _ in trace.pairs:
            truncated.append(machine.update((x[:5], y), truncated))
        assert list(trace.symbols) == truncated
        system = trace.symbols[-1][0]
        assert all(row < 1 << 5 for _, row, _ in system)
        assert fd.gf2_solution(system) == 0b10110


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

    @pytest.mark.parametrize("custom_stat", [False, True])
    @pytest.mark.parametrize("statistic", ["prediction_count", "final_acc_bit"])
    @pytest.mark.parametrize("rule", ["topk", "randomk"])
    def test_one_stack_equals_trace_by_trace(self, rule, statistic, custom_stat):
        """The experiment's one lockstep stack over all three phases gives
        the report of running every trace through run_trace.  With every
        machine's own accuracy-bit reader the stack records no step and
        builds no trace; with a custom symbol_stat it builds the symbols."""
        net = small_net()

        def stacked(seed):
            machine = sla.sgd_as_sla(net, nc.SQUARED_ERROR, dc.DescentConfig(
                gamma=0.5, steps=16, coord_budget=2, coord_rule=rule,
                quantization=nc.QuantizationSpec(8, 4), seed=seed))
            if custom_stat:
                return dataclasses.replace(machine, symbol_stat=lambda s: float(s[1]))
            return machine

        def unstacked(seed):
            return dataclasses.replace(stacked(seed), budgeted_sgd=None)

        kwargs = dict(dist=fd.ParityUniform(6), steps=16, trials=20, statistic=statistic,
                      seed=7, calibration_trials=23)
        descend = mock.patch.object(dc, "_sample_descent", wraps=dc._sample_descent)
        build = mock.patch.object(sla, "TraceRecord", wraps=sla.TraceRecord)
        with mock.patch.object(sla, "run_trace", wraps=sla.run_trace) as sequential:
            with descend as descended, build as built:
                lockstep = sla.distinguish_experiment(stacked, **kwargs)
            assert sequential.call_count == 0
            separate = sla.distinguish_experiment(unstacked, **kwargs)
            assert sequential.call_count == 23 + 2 * 20
        assert lockstep == separate
        assert descended.call_count == 1
        assert (descended.call_args.kwargs.get("on_step") is None) != custom_stat
        assert built.call_count == (23 + 2 * 20 if custom_stat else 0)

    @pytest.mark.parametrize("statistic", ["prediction_count", "final_acc_bit"])
    def test_mixed_stack_feeds_each_custom_stat_its_read_symbols(self, statistic):
        """A stack whose members carry their own symbol_stat, some custom and
        some the accuracy-bit reader: each custom stat is called on exactly
        the symbols run_traces gives that machine for the steps the
        statistic reads, and every machine's values are its stat of them."""
        net = small_net()
        steps = 12
        first = steps - 1 if statistic == "final_acc_bit" else steps // 2
        base = [sla.sgd_as_sla(net, nc.SQUARED_ERROR, quant_config(steps=steps, seed=s))
                for s in range(5)]
        seen = {k: [] for k in (1, 3)}

        def recorder(k):
            return lambda symbol: seen[k].append(symbol) or 2.0 * symbol[1]
        machines = [dataclasses.replace(m, symbol_stat=recorder(k)) if k in seen else m
                    for k, m in enumerate(base)]
        kinds = [True, False, True, False, True]
        values = list(sla._trace_stream(machines, _lockstep_sources(kinds), steps, first))
        traces = sla.run_traces(base, _lockstep_sources(kinds), steps)
        for k, trace in enumerate(traces):
            read = trace.symbols[first:]
            if k in seen:
                assert seen[k] == list(read)
            assert values[k] == [(2.0 if k in seen else 1.0) * s[1] for s in read]

    def test_derives_each_trial_seed_once(self):
        """One seed per trial feeds both its sample source and its machine."""
        made = []

        def machine(seed):
            made.append(seed)
            return sla.constant_sla()

        with mock.patch.object(sla, "_derived_seed", wraps=sla._derived_seed) as derived:
            sla.distinguish_experiment(machine, fd.ParityUniform(4), steps=5, trials=20,
                                       seed=3, calibration_trials=21)
        assert derived.call_count == 21 + 2 * 20
        assert made == [sla._derived_seed(3, tag, i)
                        for tag, count in ((0, 21), (1, 20), (2, 20)) for i in range(count)]


class TestClopperPearson:
    ALPHAS = (0.001, 0.01, 0.05, 0.1, 0.2)
    TOTALS = (*range(1, 401), 600, 1000, 6000)

    def test_equals_beta_ppf_bit_for_bit(self):
        """Every success count of every total at every alpha: the interval's
        bits are those of scipy.stats.beta's quantiles, computed over each
        total's success counts at once."""
        from scipy.stats import beta

        for alpha in self.ALPHAS:
            for total in self.TOTALS:
                s = np.arange(total + 1)
                with np.errstate(all="ignore"):  # the ends that are not computed
                    lo = beta.ppf(alpha / 2, s, total - s + 1)
                    hi = beta.ppf(1 - alpha / 2, s + 1, total - s)
                lo[0], hi[-1] = 0.0, 1.0
                got = np.array([sla._clopper_pearson(k, total, alpha) for k in range(total + 1)])
                want = np.stack([lo, hi], axis=1)
                differ = np.flatnonzero((got.view(np.uint64) != want.view(np.uint64)).any(axis=1))
                assert differ.size == 0, (
                    f"alpha {alpha}, total {total}: successes {differ[:5].tolist()} give "
                    f"{got[differ[:5]].tolist()}, beta.ppf {want[differ[:5]].tolist()}")

    @pytest.mark.parametrize("total", [1, 2, 3, 40, 400, 6000])
    def test_equals_scalar_beta_ppf(self, total):
        """The parent formula itself, one scalar beta.ppf per end, at the
        edge counts and the middle: lo is 0.0 at no success, hi 1.0 at all."""
        from scipy.stats import beta

        for alpha in self.ALPHAS:
            for k in {k for k in (0, 1, 2, total // 2, total - 2, total - 1, total) if k >= 0}:
                lo = 0.0 if k == 0 else float(beta.ppf(alpha / 2, k, total - k + 1))
                hi = 1.0 if k == total else float(beta.ppf(1 - alpha / 2, k + 1, total - k))
                got = np.array(sla._clopper_pearson(k, total, alpha))
                assert got.view(np.uint64).tolist() == np.array([lo, hi]).view(np.uint64).tolist(), \
                    (k, total, alpha, got.tolist(), (lo, hi))


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
        w = dict(net.weights)
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

    @pytest.mark.parametrize("bound, args", [
        (sla.bound_gd, (math.inf, 1.0, 0, 1, 12, 0.1)),
        (sla.bound_sgd, (0, 1, 1.0, math.inf, 12, 0.0)),
        (sla.bound_sgd_elaborated, (0, 1, 1.0, math.inf, 12, 0.0)),
        (sla.bound_gd_crosspred, (0.5, math.inf, 1.0, 10, 0, 1.0)),
        (sla.bound_gd, (0.1, 1.0, 10, 1, 12, math.inf)),
        (sla.bound_sgd, (0, 1, 1.0, 0.1, 12, 0.0, math.inf)),
    ], ids=["gd_gamma", "sgd_gamma", "sgd_elaborated_gamma", "crosspred_gamma",
            "gd_sigma2", "sgd_c_const"])
    def test_non_finite_argument_is_refused(self, bound, args):
        # an infinite factor at zero steps is NaN, which min(1, .) read as 1
        with pytest.raises(ValueError, match="finite"):
            bound(*args)

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


def _update_loop(machine):
    """The machine without its lockstep stack: run_trace then calls update
    once per step, the reference every stack is checked against."""
    return dataclasses.replace(machine, budgeted_sgd=None)


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
        overflow_b=st.sampled_from([math.inf, 0.02]),
    )
    def test_lockstep_equals_run_trace(self, kinds, rule, budget, noise, clamp, gammas,
                                       overflow_b):
        """Every machine's (z, symbol) pairs are its update loop's, whether
        the machines form one stack or several (configs that differ in gamma)."""
        net = small_net()
        steps = 15
        configs = [
            dc.DescentConfig(gamma=gammas[i], steps=steps, coord_budget=budget,
                             coord_rule=rule, weight_clamp_b=clamp, overflow_b=overflow_b,
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
        separate = [sla.run_trace(_update_loop(m), s, steps)
                    for m, s in zip(machines, _lockstep_sources(kinds))]
        assert all(_same_pairs(a, b) for a, b in zip(lockstep, separate))

    def test_stacks_interleaved_with_other_machines(self):
        """Two stacks (configs that differ in gamma) whose members are
        interleaved with each other and with machines that do not stack."""
        net = small_net()
        sgd = [sla.sgd_as_sla(net, nc.SQUARED_ERROR, quant_config(gamma=g, seed=s))
               for g, s in [(0.25, 1), (0.5, 2), (0.25, 3), (0.5, 4), (0.25, 5)]]
        machines = [sgd[0], sla.gf2_solver_sla(6), sgd[1], sla.constant_sla(), sgd[2],
                    sgd[3], sla.gf2_solver_sla(6), sgd[4]]
        kinds = [True, False, False, True, True, False, True, False]
        with mock.patch.object(sla, "run_trace", wraps=sla.run_trace) as sequential:
            traces = sla.run_traces(machines, _lockstep_sources(kinds), 15)
        assert sequential.call_count == 3
        separate = [sla.run_trace(_update_loop(m), s, 15)
                    for m, s in zip(machines, _lockstep_sources(kinds))]
        assert all(_same_pairs(a, b) for a, b in zip(traces, separate))

    def test_stream_keeps_no_consumed_trace(self):
        """Once the consumer drops a yielded trace it is freed, also while
        the rest of its stack is still to come."""
        net = small_net()
        machines = [sla.sgd_as_sla(net, nc.SQUARED_ERROR, quant_config(seed=1)),
                    sla.gf2_solver_sla(6),
                    sla.sgd_as_sla(net, nc.SQUARED_ERROR, quant_config(seed=2))]
        stream = sla._trace_stream(machines, _lockstep_sources([True, False, True]), 10)
        refs = []
        for trace in stream:
            refs.append(weakref.ref(trace))
            del trace
            assert refs[-1]() is None
        assert len(refs) == 3

    @pytest.mark.parametrize("overflow_b", [math.inf, 0.02])
    def test_lockstep_trace_replays_to_cd_run(self, overflow_b):
        net = small_net()
        cfg = dataclasses.replace(quant_config(steps=30, budget=2,
                                               noise=dc.NoiseSpec.gaussian(0.05)),
                                  overflow_b=overflow_b)
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
        separate = [sla.run_trace(_update_loop(m), again, 10) for m in machines]
        assert all(_same_pairs(a, b) for a, b in zip(traces, separate))

    @pytest.mark.parametrize("seed", [None, 21])
    def test_run_trace_stacks_one_row(self, seed):
        """run_trace runs an sgd_as_sla machine as a one-row stack, never
        calling update, and its trace is the update loop's."""
        machine = sla.sgd_as_sla(small_net(), nc.SQUARED_ERROR,
                                 quant_config(budget=2, noise=dc.NoiseSpec.gaussian(0.05)))
        calls = []
        counted = dataclasses.replace(
            machine, update=lambda z, h: calls.append(1) or machine.update(z, h))
        trace = sla.run_trace(counted, _lockstep_sources([True])[0], 25, seed=seed)
        assert calls == []
        loop = sla.run_trace(_update_loop(machine), _lockstep_sources([True])[0], 25, seed=seed)
        assert _same_pairs(trace, loop)
        assert any(changed for changed, _ in trace.symbols)

    def test_lockstep_takes_each_source_once(self):
        net = small_net()
        machines = [sla.sgd_as_sla(net, nc.SQUARED_ERROR, quant_config(seed=s))
                    for s in range(4)]
        sources = _lockstep_sources([True, False, True, False])
        take = mock.patch.object(fd.SampleSource, "take", autospec=True,
                                 side_effect=fd.SampleSource.take)
        next_sample = mock.patch.object(fd.SampleSource, "next_sample", autospec=True,
                                        side_effect=fd.SampleSource.next_sample)
        with take as took, next_sample as drew:
            sla.run_traces(machines, sources, 25)
        assert sorted(id(c.args[0]) for c in took.call_args_list) == sorted(map(id, sources))
        assert all(c.args[1:] == (25,) for c in took.call_args_list)
        assert drew.call_count == 0

    def test_trace_inputs_are_read_only(self):
        net = small_net()
        machines = [sla.sgd_as_sla(net, nc.SQUARED_ERROR, quant_config(seed=s)) for s in (1, 2)]
        lockstep = sla.run_traces(machines, _lockstep_sources([True, False]), 10)
        single = sla.run_trace(sla.gf2_solver_sla(6), _lockstep_sources([True])[0], 10)
        for trace in [*lockstep, single]:
            for (x, _), _ in trace.pairs:
                assert not x.flags.writeable
                with pytest.raises(ValueError):
                    x[0] = 0.0

    def test_needs_one_source_per_machine(self):
        with pytest.raises(ValueError):
            sla.run_traces([sla.constant_sla()], [], 5)
