"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from paritylab import crosspred as cp
from paritylab import descent as dc
from paritylab import funcdist as fd
from paritylab import labcli
from paritylab import netcore as nc
from paritylab import sla
from _util import (
    brute_force_girth,
    finite_difference_gradient,
    gradient_scaled_error,
    make_random_dag_net,
)


def report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_closed_form_cross_predictability():
    worst = 0.0
    for n in range(2, 11):
        est = cp.pred_exact(fd.UniformInputs(n), fd.ParityUniform(n))
        worst = max(worst, abs(est.value - 2.0 ** (-n)))
    uniform_ok = True
    for n in (3, 5, 8):
        est = cp.pred_exact(fd.UniformInputs(n), fd.UniformAll(n))
        uniform_ok &= est.value == 2.0 ** (-n)
    point_ok = True
    for dist in (fd.ParityUniform(4), fd.MonomialK(6, 3), fd.UniformAll(5)):
        x = tuple(fd.bits_to_pm(np.arange(dist.n) % 2))
        est = cp.pred_exact(fd.PointMassInput(x), dist)
        point_ok &= abs(est.value - 1.0) <= 1e-12
    mono_worst = 0.0
    for n in range(2, 11):
        for k in range(1, n + 1):
            est = cp.pred_exact(fd.UniformInputs(n), fd.MonomialK(n, k))
            mono_worst = max(mono_worst, abs(est.value - 1.0 / math.comb(n, k)))
    ok = worst <= 1e-12 and uniform_ok and point_ok and mono_worst <= 1e-12
    report(1, ok,
           f"parity dev {worst:.2e}, uniform-all {uniform_ok}, point-mass "
           f"{point_ok}, monomial dev {mono_worst:.2e} (tolerance 1e-12)")


def test_criterion_02_newpred_audit():
    rng = np.random.default_rng(20240)
    holds = 0
    parseval_worst = 0.0
    total = 1000
    for i in range(total):
        n = 3 + i % 6  # n in {3..8}
        table = rng.normal(size=(2 ** n, 2)) * rng.uniform(0.2, 3.0)
        result = cp.check_newpred(table)
        holds += bool(result.holds)
        parseval_worst = max(parseval_worst, abs(result.lhs - result.lhs_parseval))
    ok = holds == total and parseval_worst <= 1e-10
    report(2, ok,
           f"inequality held {holds}/{total}, max direct-vs-Parseval gap "
           f"{parseval_worst:.2e} (tolerance 1e-10)")


def test_criterion_03_learning_from_a_bit_bound():
    rng = np.random.default_rng(30303)
    holds = 0
    total = 100
    for i in range(total):
        n = int(rng.integers(3, 7))  # n <= 6
        m = int(rng.integers(2, 17))  # m <= 16
        table = rng.integers(0, m, size=(2 ** n, 2))
        roll = rng.random()
        if roll < 0.4:
            dist = fd.ParityUniform(n)
        elif roll < 0.7:
            dist = fd.MonomialK(n, int(rng.integers(1, n + 1)))
        else:
            support = [fd.RandomTable(n, int(rng.integers(0, 1 << 30)))
                       for _ in range(int(rng.integers(2, 12)))]
            probs = rng.random(len(support))
            probs /= probs.sum()
            probs[-1] = 1.0 - probs[:-1].sum()
            dist = fd.Explicit(tuple(zip(support, probs)))
        result = cp.check_bit_info_bound(table, m, dist)
        holds += bool(result.lhs <= result.rhs + 1e-12)
    ok = holds == total
    report(3, ok, f"lhs <= sqrt(Pred) + 1e-12 in {holds}/{total} instances")


def test_criterion_04_gradient_finite_differences():
    worst = 0.0
    for activation, base_seed in ((nc.SIGMOID, 41), (nc.TANH, 42)):
        rng = np.random.default_rng(base_seed)
        for _ in range(20):
            net = make_random_dag_net(
                rng, n_inputs=int(rng.integers(2, 6)),
                n_interior=int(rng.integers(3, 9)), activation=activation,
                weight_scale=1.2,
            )
            x = 1.0 - 2.0 * rng.integers(0, 2, size=net.n_inputs).astype(float)
            y = float(1 - 2 * rng.integers(0, 2))
            analytic, _ = net.gradient_array(x, y, nc.SQUARED_ERROR)
            numeric = finite_difference_gradient(net, x, y, nc.SQUARED_ERROR)
            worst = max(worst, gradient_scaled_error(analytic, numeric))
    ok = worst <= 1e-5
    report(4, ok, f"max scaled gradient error {worst:.2e} over 20+20 nets "
                  f"(tolerance 1e-5)")


def test_criterion_05_grid_parity_replication():
    results = labcli.run_gridparity(
        grid_k=5, widths=[64, 64, 64], epochs=80, train_count=1000,
        test_count=1000, gamma=0.1, loss=nc.SQUARED_ERROR, seeds=list(range(10)),
    )
    train_errs = [rows[-1][2] for rows in results]
    test_errs = [rows[-1][3] for rows in results]
    mean_train = float(np.mean(train_errs))
    mean_test = float(np.mean(test_errs))
    ok = mean_train <= 0.05 and 0.45 <= mean_test <= 0.55
    report(5, ok,
           f"mean final train err {mean_train:.3f} (<= 0.05), mean test err "
           f"{mean_test:.3f} (in [0.45, 0.55]) over 10 seeds")


def test_criterion_06_gf2_recovery():
    n, samples_per_run = 25, 45  # n + 20
    successes = 0
    for seed in range(100):
        rng = np.random.default_rng(60000 + seed)
        mask = int(rng.integers(0, 2 ** n))
        f = fd.ParitySubset(n, mask)
        src = fd.SampleSource.planted(f, fd.UniformInputs(n), seed=seed)
        samples = [src.next_sample() for _ in range(samples_per_run)]
        try:
            successes += fd.gf2_recover(samples) == mask
        except (fd.NotIdentifiable, fd.Inconsistent):
            pass
    ok = successes >= 99
    report(6, ok, f"recovered the planted subset in {successes}/100 seeds "
                  f"(needs >= 99)")


def test_criterion_07_monomial_net_positive_baseline():
    n, k = 10, 2
    f = fd.MonomialK(n, k).draw(np.random.default_rng(7007))
    net = nc.build_monomial_net(n, k)
    readout = [net.graph.edge_index()[e]
               for _, e in nc.monomial_readout_edges(net)]
    cfg = dc.DescentConfig(gamma=0.02, steps=4000, seed=7)
    src = fd.SampleSource.planted(f, fd.UniformInputs(n), seed=70)
    trained, _ = dc.sgd_run(net, src, nc.SQUARED_ERROR, cfg,
                            record_steps=False, trainable=readout)
    accuracy = sla.accuracy_eval(trained, f)  # exhaustive over 2^10 inputs
    ok = accuracy >= 0.99
    report(7, ok, f"SGD readout on MonomialK(10,2) reached exhaustive accuracy "
                  f"{accuracy:.4f} (needs >= 0.99)")


def test_criterion_08_noisy_gd_failure():
    n = 12
    sigma2 = 2.0 ** (-n / 10.0)
    gamma, overflow_b, steps, n_parities = 0.01, 1.0, 500, 50
    widths = [16]
    edges = nc.build_mlp(n, widths, nc.SIGMOID).n_edges
    assert edges <= 300
    accs = labcli.noisy_gd_parity_accuracies(
        n=n, widths=widths, gamma=gamma, overflow_b=overflow_b, steps=steps,
        sigma2=sigma2, n_parities=n_parities, seed=808,
    )
    mean_acc = float(np.mean(accs))
    bound = sla.bound_gd(gamma, overflow_b, steps, edges, n, sigma2)
    # at desk scale the theorem's cap clamps at 1; the criterion's content is
    # the chance-level measurement, which the cap must still dominate
    ok = 0.48 <= mean_acc <= 0.52 and mean_acc <= bound
    report(8, ok,
           f"mean accuracy {mean_acc:.4f} over {n_parities} planted parities "
           f"(needs [0.48, 0.52]), bound_gd {bound:.4f} dominates: "
           f"{mean_acc <= bound}")


def test_criterion_09_bounded_memory_distinguishability():
    n = 16
    base_net = nc.build_mlp(n, [8], nc.SIGMOID, init="he_uniform",
                            rng=np.random.default_rng(909))

    def factory(trial_seed: int) -> sla.SlaStateMachine:
        cfg = dc.DescentConfig(gamma=0.1, steps=200, coord_budget=1,
                               quantization=nc.QuantizationSpec(8, 4),
                               seed=trial_seed)
        return sla.sgd_as_sla(base_net, nc.SQUARED_ERROR, cfg)

    result = sla.distinguish_experiment(
        factory, fd.ParityUniform(n), steps=200, trials=200,
        statistic="prediction_count", seed=99,
    )
    overlaps = result.ci_low <= 0.55 and result.ci_high >= 0.45
    report(9, overlaps,
           f"distinguishing accuracy {result.accuracy:.3f}, exact binomial CI "
           f"[{result.ci_low:.3f}, {result.ci_high:.3f}] overlaps [0.45, 0.55]")


def test_criterion_09_machine_moves_only_the_output_bias():
    """The README's caveat on criterion 9: on its 16-8-1 sigmoid net with
    budget 1, top-k and 8-bit/4 weights, every symbol changes the output-bias
    edge or nothing.  If this stops holding, the caveat is stale."""
    n, seed, trials, steps = 16, 99, 4, 200
    base_net = nc.build_mlp(n, [8], nc.SIGMOID, init="he_uniform",
                            rng=np.random.default_rng(909))
    graph = base_net.graph
    bias = graph.edge_index()[(graph.constant, graph.output)]
    inputs = fd.UniformInputs(n)
    fn_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    trial_seeds = [sla._derived_seed(seed, tag, i) for tag in (1, 2) for i in range(trials)]
    sources = [fd.SampleSource.planted(fd.ParityUniform(n).draw(fn_rng), inputs, seed=s)
               for s in trial_seeds[:trials]]
    sources += [fd.SampleSource.null(inputs, seed=s) for s in trial_seeds[trials:]]
    machines = [
        sla.sgd_as_sla(base_net, nc.SQUARED_ERROR, dc.DescentConfig(
            gamma=0.1, steps=steps, coord_budget=1,
            quantization=nc.QuantizationSpec(8, 4), seed=s))
        for s in trial_seeds
    ]
    touched = {i for trace in sla.run_traces(machines, sources, steps)
               for changed, _ in trace.symbols for i, _ in changed}
    assert touched == {bias}


def test_criterion_09_companion_machine_trains_hidden_layers():
    """Criterion 9 with a bounded-memory machine that trains the whole net:
    the random-k rule with budget 1 and 12-bit weights with 8 fractional bits
    (step 2^-8, fine enough for gamma * |gradient| to survive rounding on the
    hidden layer), on criterion 9's n, net, gamma, steps and trials.  It must
    still fail to distinguish, while touching hidden-layer edges, and the
    full-memory GF(2) solver must distinguish at the same step count."""
    n, seed, steps, trials = 16, 99, 200, 200
    base_net = nc.build_mlp(n, [8], nc.SIGMOID, init="he_uniform",
                            rng=np.random.default_rng(909))
    graph = base_net.graph
    hidden = {i for i, (_, v) in enumerate(graph.edges) if v != graph.output}
    touched = set()

    def record(symbol):
        # prediction_count reads the second half of every trace's symbols
        touched.update(i for i, _ in symbol[0])
        return float(symbol[1])

    def factory(trial_seed: int) -> sla.SlaStateMachine:
        cfg = dc.DescentConfig(gamma=0.1, steps=steps, coord_budget=1, coord_rule="randomk",
                               quantization=nc.QuantizationSpec(12, 8), seed=trial_seed)
        machine = sla.sgd_as_sla(base_net, nc.SQUARED_ERROR, cfg)
        return dataclasses.replace(machine, symbol_stat=record)

    result = sla.distinguish_experiment(
        factory, fd.ParityUniform(n), steps=steps, trials=trials,
        statistic="prediction_count", seed=seed,
    )
    solver = sla.distinguish_experiment(
        sla.gf2_solver_sla(n), fd.ParityUniform(n), steps=steps, trials=trials,
        statistic="prediction_count", seed=seed,
    )
    overlaps = result.ci_low <= 0.55 and result.ci_high >= 0.45
    trains_hidden = bool(touched & hidden)
    solver_distinguishes = solver.ci_low > 0.55
    ok = overlaps and trains_hidden and solver_distinguishes
    detail = (f"random-k, budget 1, 12/8-bit weights: accuracy {result.accuracy:.3f}, "
              f"exact binomial CI [{result.ci_low:.3f}, {result.ci_high:.3f}] overlaps "
              f"[0.45, 0.55], cap {result.theoretical_cap:.3f}; touched "
              f"{len(touched & hidden)} hidden-layer and {len(touched - hidden)} output-layer "
              f"edges of {graph.n_edges}; GF(2) solver accuracy {solver.accuracy:.3f}, "
              f"CI [{solver.ci_low:.3f}, {solver.ci_high:.3f}]")
    print(f"{'PASS' if ok else 'FAIL'} criterion 9 companion: {detail}")
    assert ok, f"criterion 9 companion: {detail}"


def test_criterion_10_aer_girth():
    grid = [(20, 6.0, 4), (25, 8.0, 4), (30, 12.0, 5), (40, 10.0, 6),
            (24, 30.0, 3)]
    passed = 0
    total = 0
    for combo_idx, (n, m, r) in enumerate(grid):
        for seed in range(40):
            graph = fd.aer_sample(n, m, r, seed=1000 * combo_idx + seed)
            total += 1
            passed += brute_force_girth(graph) >= r
    ok = passed == total == 200
    report(10, ok, f"{passed}/{total} sampled graphs pass the independent "
                   f"girth verifier")


def test_criterion_11_reproducibility(tmp_path):
    configs = {
        "xpred": {
            "experiment": "xpred", "seed": 11, "output_dir": "",
            "parameters": {"distribution": {"kind": "parity_uniform", "n": 8}},
        },
        "gridparity": {
            "experiment": "gridparity", "seed": 11, "output_dir": "",
            "parameters": {"grid_k": 3, "widths": [8], "epochs": 2,
                           "train_count": 50, "test_count": 50, "n_seeds": 2},
        },
        "gen-aer": {
            "experiment": "gen-aer", "seed": 11, "output_dir": "",
            "parameters": {"n": 20, "m": 6.0, "r": 4, "count": 2},
        },
        "distinguish": {
            "experiment": "distinguish", "seed": 11, "output_dir": "",
            "parameters": {"distribution": {"kind": "parity_uniform", "n": 5},
                           "steps": 8, "trials": 20, "machine": "constant"},
        },
    }
    mismatches = []
    for command, base in configs.items():
        blobs = []
        for attempt in ("first", "second"):
            out_dir = tmp_path / f"{command}_{attempt}"
            cfg_path = tmp_path / f"{command}_{attempt}.json"
            cfg_path.write_text(json.dumps({**base, "output_dir": str(out_dir)}))
            code = labcli.main([command, "--config", str(cfg_path)])
            assert code == 0
            blobs.append({
                p.name: p.read_bytes()
                for p in sorted(out_dir.iterdir())
                if p.name != "manifest.json"  # manifests carry wall-clock times
            })
        if blobs[0] != blobs[1]:
            mismatches.append(command)
    ok = not mismatches
    report(11, ok, "re-running each manifest's config+seed reproduced every "
                   "result file byte-for-byte"
                   + (f" (mismatches: {mismatches})" if mismatches else ""))
