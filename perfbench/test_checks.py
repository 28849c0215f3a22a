"""Tests of the benchmark's own checks: each accepts a correct output and
refuses a damaged one.

    python3 -m pytest -q perfbench
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import paritylab.labcli  # noqa: E402,F401
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import paritylab  # noqa: E402


def stamped(body: str) -> str:
    return body + f"# sha256={hashlib.sha256(body.encode()).hexdigest()}\n"


@pytest.mark.parametrize("k", [0, 1, 7, 20, 33, 39, 40])
def test_clopper_pearson_matches_beta_quantiles(k):
    from scipy.stats import beta

    lo, hi = checks.clopper_pearson(k, 40)
    assert lo == (0.0 if k == 0 else pytest.approx(beta.ppf(0.025, k, 41 - k), abs=1e-12))
    assert hi == (1.0 if k == 40 else pytest.approx(beta.ppf(0.975, k + 1, 40 - k), abs=1e-12))


def test_clopper_pearson_edges():
    assert checks.clopper_pearson(0, 40)[0] == 0.0
    assert checks.clopper_pearson(40, 40)[1] == 1.0
    lo, hi = checks.clopper_pearson(0, 40)
    assert hi == pytest.approx(1 - 0.025 ** (1 / 40), rel=1e-9)


def test_noisy_gd_check():
    params = WORKLOADS["noisy_gd"].params
    doc = {"accuracies": [2049 / 4096], "mean_accuracy": 2049 / 4096,
           "bound": 1.0, "edges": 225}
    assert checks.check_noisy_gd(doc, params, [6]) == []
    for key, bad in (("accuracies", [0.5 + 1e-6]), ("edges", 224), ("bound", 0.99),
                     ("mean_accuracy", 0.49)):
        assert checks.check_noisy_gd({**doc, key: bad}, params, [6])
    learned = {**doc, "accuracies": [0.75], "mean_accuracy": 0.75}
    assert checks.check_noisy_gd(learned, params, [6])
    assert checks.check_noisy_gd(learned, params, [3]) == []  # low degree: no window


def test_planted_parity_degrees_follow_the_program():
    dist = paritylab.funcdist.ParityUniform(12)
    for lab_seed in (0, 1000, 5007):
        want = [bin(dist.draw(np.random.default_rng(lab_seed * 100003 + i)).mask).count("1")
                for i in range(3)]
        assert checks.planted_parity_degrees(lab_seed, 3, 12) == want


def test_bound_gd_is_clamped_at_one_in_criterion_8():
    raw = 0.5 + 0.01 * 500 * math.sqrt(225 / 4096 / (2 * math.pi * 2 ** -1.2))
    assert raw > 1.0
    assert checks.bound_gd(0.01, 1.0, 500, 225, 12, 2 ** -1.2) == 1.0
    assert checks.mlp_edges(12, [16]) == 13 * 16 + 17


def grid_texts(train_err, test_err, seed=7, epochs=3):
    rows = "".join(f"{e},0.1,{train_err},{test_err}\n" for e in range(1, epochs + 1))
    return {
        f"gridparity_seed{seed}.csv": stamped("epoch,train_loss,train_err,test_err\n" + rows),
        "gridparity_summary.csv": stamped(
            "seed,final_train_loss,final_train_err,final_test_err\n"
            f"{seed},0.1,{train_err},{test_err}\n"),
    }


def test_grid_sgd_check():
    params = {"epochs": 3, "test_count": 1000}
    assert checks.check_grid_sgd(grid_texts(0.01, 0.49), params, [7]) == []
    assert checks.check_grid_sgd(grid_texts(0.069, 0.53), params, [7]) == []
    assert checks.check_grid_sgd(grid_texts(0.3, 0.49), params, [7])
    assert checks.check_grid_sgd(grid_texts(0.01, 0.1), params, [7])
    texts = grid_texts(0.01, 0.49)
    name = "gridparity_seed7.csv"
    texts[name] = texts[name].replace("0.49", "0.48", 1)
    assert checks.check_grid_sgd(texts, params, [7])
    assert checks.check_grid_sgd(grid_texts(0.01, 0.49, epochs=2), params, [7])


def test_sla_check():
    params = {"trials": 20}
    lo, hi = checks.clopper_pearson(21, 40)
    doc = {"accuracy": 21 / 40, "ci_low": lo, "ci_high": hi}
    assert checks.check_sla_distinguish(doc, params) == []
    assert checks.check_sla_distinguish({**doc, "ci_low": lo + 1e-6}, params)
    lo, hi = checks.clopper_pearson(36, 40)
    assert checks.check_sla_distinguish({"accuracy": 0.9, "ci_low": lo, "ci_high": hi}, params)


def test_xpred_check():
    params = WORKLOADS["xpred_mc"].params
    exact = checks.constant_mixture_pred(0.25, 16)
    assert exact == pytest.approx(0.25 + 0.75 / 65536)
    doc = {"method": "monte_carlo", "trials": 2000, "value": exact + 0.02, "ci95": 0.018}
    assert checks.check_xpred_mc(doc, params) == []
    assert checks.check_xpred_mc({**doc, "value": exact + 0.06}, params)
    assert checks.check_xpred_mc({**doc, "value": 1.2, "ci95": 1.0}, params)
    assert checks.check_xpred_mc({**doc, "method": "closed_form"}, params)


def test_population_reference_catches_a_wrong_clamp():
    nc, dc, fd = paritylab.netcore, paritylab.descent, paritylab.funcdist
    rng = np.random.default_rng(3)
    net = nc.build_mlp(4, [3], nc.SIGMOID, init="he_uniform", rng=rng)
    pop = dc.Population.uniform_grid(4, fd.ParitySubset(4, 0b0110).evaluate_batch)
    ref = checks.population_step_reference(net, pop.xs, pop.ys, pop.probs, 1.0, 0.05)
    stepped = dc.gd_step(net, pop, nc.SQUARED_ERROR, 1.0, overflow_b=0.05)
    got = stepped.weights.values - net.weights.values
    assert checks.relative_error(got, ref) < 1e-12
    unclamped = dc.gd_step(net, pop, nc.SQUARED_ERROR, 1.0)
    assert checks.relative_error(unclamped.weights.values - net.weights.values, ref) > 1e-3


@pytest.mark.parametrize("name", ["noisy_gd", "sla_distinguish"])
def test_program_checks_pass(name):
    assert WORKLOADS[name].check_program(paritylab, 5) == []


def test_tracer_self_time_and_names():
    t = tracer.Tracer()

    def inner(self, xs):
        return len(xs)

    def outer():
        return wrapped_inner(None, [1, 2, 3]) + wrapped_inner(None, [4])

    wrapped_inner = t.wrap("funcdist.RandomTable.evaluate_batch", inner)
    assert t.wrap("labcli.main", outer)() == 4
    m = t.metrics()
    assert m["labcli.main.calls"][0] == 1
    assert m["funcdist.RandomTable.evaluate_batch.calls"][0] == 2
    assert m["funcdist.RandomTable.evaluate_batch.rows"][0] == 4
    child = m["funcdist.RandomTable.evaluate_batch.total_s"][0]
    assert m["labcli.main.self_s"][0] == pytest.approx(m["labcli.main.total_s"][0] - child)
    assert set(m) == {name for name, _ in tracer.per_layer_metric_names()}


def test_tail_percentile_has_ten_calls_beyond():
    assert tracer.tail_percentile(50) is None
    assert tracer.tail_percentile(100) == 90.0
    assert tracer.tail_percentile(80000) == 99.9
    assert tracer.tail_percentile(100000) == 99.99


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want = dict(tracer.per_layer_metric_names())
    want["trace.steps_per_s"] = "steps/s"
    assert per_layer == want
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "steps_per_s", "peak_rss_mb"}


def test_install_wraps_and_restores():
    t = tracer.Tracer()
    before = paritylab.netcore.NeuralNet.gradient_array
    restore = t.install(paritylab)
    assert paritylab.netcore.NeuralNet.gradient_array is not before
    restore()
    assert paritylab.netcore.NeuralNet.gradient_array is before

