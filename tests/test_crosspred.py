import math

import numpy as np
import pytest

from paritylab import crosspred as cp
from paritylab import funcdist as fd


class TestPredExact:
    def test_parity_uniform_powers_of_two(self):
        for n in range(2, 11):
            est = cp.pred_exact(fd.UniformInputs(n), fd.ParityUniform(n))
            assert est.method == "exact"
            assert abs(est.value - 2.0 ** (-n)) <= 1e-12

    def test_point_mass_input_gives_one(self):
        x = tuple(fd.bits_to_pm([1, 0, 1]))
        for dist in (fd.ParityUniform(3), fd.MonomialK(3, 2)):
            est = cp.pred_exact(fd.PointMassInput(x), dist)
            assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_monomial_brute_force(self):
        est = cp.pred_exact(fd.UniformInputs(6), fd.MonomialK(6, 2))
        assert abs(est.value - 1.0 / 15.0) <= 1e-12

    def test_uniform_all_collision_entropy(self):
        est = cp.pred_exact(fd.UniformInputs(5), fd.UniformAll(5))
        assert est.value == 2.0 ** (-5)
        xs = fd.bits_to_pm(np.array([[0, 0], [0, 1], [0, 0]]))  # duplicate row
        est2 = cp.pred_exact(fd.FiniteInputs(xs), fd.UniformAll(2))
        assert est2.value == pytest.approx((2 / 3) ** 2 + (1 / 3) ** 2, abs=1e-12)

    def test_explicit_nonuniform_hand_value(self):
        f1 = fd.ParitySubset(3, 0b001)
        f2 = fd.ParitySubset(3, 0b011)
        dist = fd.Explicit(((f1, 0.3), (f2, 0.7)))
        # corr(f1,f1) = corr(f2,f2) = 1, corr(f1,f2) = 0
        expected = 0.3 ** 2 + 0.7 ** 2
        est = cp.pred_exact(fd.UniformInputs(3), dist)
        assert est.value == pytest.approx(expected, abs=1e-12)

    def test_too_large(self):
        with pytest.raises(fd.TooLarge):
            cp.pred_exact(fd.UniformInputs(13), fd.ParityUniform(13))
        with pytest.raises(fd.TooLarge):
            cp.pred_exact(fd.UniformInputs(6), fd.ConstantMixture(6, 0.1))

    def test_range_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            support = [fd.RandomTable(n, int(rng.integers(0, 1 << 30)))
                       for _ in range(int(rng.integers(2, 9)))]
            probs = rng.random(len(support))
            probs = probs / probs.sum()
            probs[-1] = 1.0 - probs[:-1].sum()
            dist = fd.Explicit(tuple(zip(support, probs)))
            est = cp.pred_exact(fd.UniformInputs(n), dist)
            assert 0.0 <= est.value <= 1.0


class TestPredClosedForm:
    def test_uniform_all(self):
        est = cp.pred_closed_form(fd.UniformAll(5), fd.UniformInputs(5))
        assert est.method == "closed_form" and est.value == 2.0 ** (-5)

    def test_parity_uniform(self):
        est = cp.pred_closed_form(fd.ParityUniform(10), fd.UniformInputs(10))
        assert est.value == 2.0 ** (-10)

    def test_monomial(self):
        est = cp.pred_closed_form(fd.MonomialK(10, 3), fd.UniformInputs(10))
        assert est.value == pytest.approx(1.0 / math.comb(10, 3), abs=1e-15)

    def test_point_mass(self):
        est = cp.pred_closed_form(fd.ConstantMixture(4, 0.1),
                                  fd.PointMassInput((1.0,) * 4))
        assert est.value == 1.0

    def test_constant_mixture_unavailable(self):
        assert cp.pred_closed_form(fd.ConstantMixture(8, 0.1),
                                   fd.UniformInputs(8)) is None

    def test_agrees_with_exact(self):
        for dist in (fd.ParityUniform(6), fd.MonomialK(8, 2), fd.UniformAll(6)):
            closed = cp.pred_closed_form(dist, fd.UniformInputs(dist.n))
            exact = cp.pred_exact(fd.UniformInputs(dist.n), dist)
            assert closed.value == pytest.approx(exact.value, abs=1e-12)


class TestPredMonteCarlo:
    def test_within_ci_of_closed_form(self):
        est = cp.pred_monte_carlo(fd.ParityUniform(8), fd.UniformInputs(8),
                                  outer_pairs=20_000, inner_x=256, seed=0)
        assert abs(est.value - 2.0 ** (-8)) <= est.ci95_halfwidth
        assert est.ci95_halfwidth < 2.0 ** (-8)

    def test_point_mass_constant_function(self):
        dist = fd.Explicit(((fd.ConstPlus(4), 1.0),))
        est = cp.pred_monte_carlo(dist, fd.UniformInputs(4),
                                  outer_pairs=50, inner_x=16, seed=1)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_seeded_determinism(self):
        a = cp.pred_monte_carlo(fd.ParityUniform(5), fd.UniformInputs(5), 200, 64, seed=3)
        b = cp.pred_monte_carlo(fd.ParityUniform(5), fd.UniformInputs(5), 200, 64, seed=3)
        assert a == b

    def test_ci_calibration(self):
        # >= 93 of 100 replications land within their own CI of the truth
        truth = 2.0 ** (-6)
        hits = 0
        for seed in range(100):
            est = cp.pred_monte_carlo(fd.ParityUniform(6), fd.UniformInputs(6),
                                      outer_pairs=1500, inner_x=128, seed=seed)
            if abs(est.value - truth) <= est.ci95_halfwidth:
                hits += 1
        assert hits >= 93

    def test_estimate_in_unit_interval(self):
        est = cp.pred_monte_carlo(fd.ConstantMixture(10, 0.2), fd.UniformInputs(10),
                                  outer_pairs=2000, inner_x=64, seed=5)
        assert 0.0 <= est.value <= 1.0
        # mixture truth: 4p^2 + (1 - 4p^2) 2^-n ~ 0.16
        assert abs(est.value - 0.16) <= max(3 * est.ci95_halfwidth, 0.02)


class TestPredVsRandomNet:
    def test_constant_target_range(self):
        est = cp.pred_vs_random_net(fd.ConstPlus(6), (8,), trials=100, seed=0,
                                    inner_x=128)
        assert 0.0 <= est.value <= 1.0

    def test_dictator_beats_full_parity(self):
        n = 8
        dictator = cp.pred_vs_random_net(fd.ParitySubset(n, 0b1), (16,),
                                         trials=400, seed=1, inner_x=256)
        full = cp.pred_vs_random_net(fd.ParitySubset(n, (1 << n) - 1), (16,),
                                     trials=400, seed=2, inner_x=256)
        gap = dictator.value - full.value
        spread = math.hypot(dictator.ci95_halfwidth, full.ci95_halfwidth)
        assert gap > 1.5 * spread  # 3 sigma with ci95 ~ 2 sigma

    def test_ci_shrinks_with_trials(self):
        small = cp.pred_vs_random_net(fd.ParitySubset(6, 0b1), (8,),
                                      trials=300, seed=3, inner_x=128)
        big = cp.pred_vs_random_net(fd.ParitySubset(6, 0b1), (8,),
                                    trials=600, seed=3, inner_x=128)
        ratio = big.ci95_halfwidth / small.ci95_halfwidth
        assert 1 / math.sqrt(2) * 0.8 <= ratio <= 1 / math.sqrt(2) * 1.2


class TestMonteCarloPinned:
    """Values taken before the two estimators shared one pair loop and
    bootstrap: the same draws in the same order."""

    def test_pred_monte_carlo(self):
        est = cp.pred_monte_carlo(fd.ParityUniform(6), fd.UniformInputs(6), 50, 32,
                                  seed=3, bootstrap=100)
        assert (est.value, est.ci95_halfwidth) == (0.016774193548387096, 0.039619959677419325)

    def test_pred_vs_random_net(self):
        est = cp.pred_vs_random_net(fd.ParitySubset(8, 0b1011), [6, 4], trials=40, seed=5,
                                    inner_x=64, bootstrap=100)
        assert (est.value, est.ci95_halfwidth) == (0.0, 0.005934089781746031)


class TestCheckNewpred:
    def test_constant_function(self):
        table = np.full((16, 2), 2.5)
        result = cp.check_newpred(table)
        assert result.lhs == pytest.approx(0.0, abs=1e-15)
        assert result.lhs_parseval == pytest.approx(0.0, abs=1e-15)
        assert result.rhs == pytest.approx(2.5 ** 2, abs=1e-12)
        assert result.holds

    def test_indicator_of_one_parity(self):
        # f(x, y) = 1[y == p_t(x)]: the s = t term carries the whole mass 1/4
        n, t_mask = 5, 0b10101
        xs = fd.all_inputs_pm(n)
        t_bits = ((1.0 - fd.ParitySubset(n, t_mask).evaluate_batch(xs)) / 2).astype(int)
        table = np.zeros((2 ** n, 2))
        table[np.arange(2 ** n), t_bits] = 1.0
        result = cp.check_newpred(table)
        assert result.lhs == pytest.approx(0.25, abs=1e-12)
        assert result.lhs_parseval == pytest.approx(0.25, abs=1e-12)
        assert result.rhs == pytest.approx(0.5, abs=1e-12)
        assert result.holds

    def test_random_tables_hold_with_parseval_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            table = rng.normal(size=(2 ** n, 2)) * rng.uniform(0.1, 4.0)
            result = cp.check_newpred(table)
            assert result.holds
            assert abs(result.lhs - result.lhs_parseval) <= 1e-10

    def test_size_guard(self):
        with pytest.raises(fd.TooLarge):
            cp.check_newpred(np.zeros((2 ** 11, 2)))


class TestCheckBitInfoBound:
    def test_label_blind_g_has_zero_lhs(self):
        n = 4
        rng = np.random.default_rng(0)
        col = rng.integers(0, 4, size=2 ** n)
        table = np.stack([col, col], axis=1)  # ignores y
        result = cp.check_bit_info_bound(table, 4, fd.ParityUniform(n))
        assert result.lhs == pytest.approx(0.0, abs=1e-15)
        assert result.holds

    def test_label_forwarding_g(self):
        # W = y mapped to {0, 1} with m = 2
        n = 4
        table = np.tile(np.array([[0, 1]]), (2 ** n, 1))
        result = cp.check_bit_info_bound(table, 2, fd.ParityUniform(n))
        assert result.holds
        assert result.rhs == pytest.approx(2.0 ** (-n / 2), abs=1e-12)

    def test_randomized_audit(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(3, 7))
            m = int(rng.integers(2, 17))
            table = rng.integers(0, m, size=(2 ** n, 2))
            if rng.random() < 0.5:
                dist = fd.ParityUniform(n)
            else:
                support = [fd.RandomTable(n, int(rng.integers(0, 1 << 30)))
                           for _ in range(8)]
                dist = fd.Explicit(tuple((f, 1 / 8) for f in support))
            result = cp.check_bit_info_bound(table, m, dist)
            assert result.holds

    def test_size_guards(self):
        with pytest.raises(fd.TooLarge):
            cp.check_bit_info_bound(np.zeros((2 ** 9, 2), dtype=int), 2,
                                    fd.ParityUniform(9))
        with pytest.raises(ValueError):
            cp.check_bit_info_bound(np.full((16, 2), 5), 4, fd.ParityUniform(4))


class TestPredEstimate:
    def test_exact_carries_no_ci(self):
        with pytest.raises(ValueError):
            cp.PredEstimate(value=0.5, method="exact", trials=10)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-300,
                                       1.0000000000000002, 2.0])
    @pytest.mark.parametrize("method", ["exact", "closed_form", "monte_carlo"])
    def test_value_outside_unit_interval_raises(self, value, method):
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            cp.PredEstimate(value=value, method=method)

    @pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, 0.5, 1.0])
    def test_unit_interval_endpoints_accepted(self, value):
        assert cp.PredEstimate(value=value, method="exact").value == value

    def test_exact_rounding_above_one_is_one(self):
        # nine constants at 1/9 over nine inputs: the weighted sums round to
        # 1 + 2^-52, inside the 1e-12 agreement of the two forms
        dist = fd.Explicit(tuple((fd.ConstPlus(3), 1.0 / 9) for _ in range(9)))
        xs = 1.0 - 2.0 * ((np.arange(9)[:, None] >> np.arange(3)[None, :]) & 1)
        assert cp.pred_exact(fd.FiniteInputs(xs), dist).value == 1.0

    def test_json_shape(self):
        est = cp.PredEstimate(value=0.25, method="monte_carlo", trials=100,
                              ci95_halfwidth=0.01)
        doc = est.to_json(inputs_digest="abc123")
        assert doc == {"method": "monte_carlo", "value": 0.25, "trials": 100,
                       "ci95": 0.01, "inputs_digest": "abc123"}
