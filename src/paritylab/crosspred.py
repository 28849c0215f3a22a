"""Cross-predictability of function distributions, plus inequality verifiers.

Pred(P_X, P_F) = E_{F,F'} (E_X F(X) F'(X))^2.  It equals the dual form
E_{X,X'} (E_F F(X) F(X'))^2; the exact path computes both and insists they
agree.  The Monte-Carlo estimator squares an inner-sample mean, which is
biased upward by Var/inner_x, so the unbiased correction (subtracting the
sample-variance term) is applied per function pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .funcdist import (
    FiniteInputs,
    FunctionDistribution,
    FunctionId,
    MonomialK,
    ParityUniform,
    PointMassInput,
    TooLarge,
    UniformAll,
    UniformInputs,
    all_inputs_pm,
)
from .netcore import SIGMOID, build_mlp, predict_label

MAX_EXHAUSTIVE_N = 12
MAX_ENUM_SUPPORT = 4096


@dataclass(frozen=True)
class PredEstimate:
    """A cross-predictability value with its provenance."""

    value: float
    method: str  # 'exact' | 'closed_form' | 'monte_carlo'
    trials: int = 0
    ci95_halfwidth: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:  # NaN fails too
            raise ValueError(f"cross-predictability {self.value!r} is outside [0, 1]")
        if self.method in ("exact", "closed_form"):
            if self.trials != 0 or self.ci95_halfwidth != 0.0:
                raise ValueError("exact estimates carry no trial count or CI")

    def to_json(self, inputs_digest: Optional[str] = None) -> dict:
        doc = {
            "method": self.method,
            "value": self.value,
            "trials": self.trials,
            "ci95": self.ci95_halfwidth,
        }
        if inputs_digest is not None:
            doc["inputs_digest"] = inputs_digest
        return doc


def _input_support(input_dist):
    """(points, probabilities) with duplicates aggregated."""
    if isinstance(input_dist, UniformInputs):
        if input_dist.n > MAX_EXHAUSTIVE_N:
            raise TooLarge(f"exhaustive input sum refused for n={input_dist.n}")
        xs = all_inputs_pm(input_dist.n)
        return xs, np.full(xs.shape[0], 1.0 / xs.shape[0])
    if isinstance(input_dist, PointMassInput):
        return np.array([input_dist.x]), np.array([1.0])
    if isinstance(input_dist, FiniteInputs):
        xs, counts = np.unique(input_dist.xs, axis=0, return_counts=True)
        return xs, counts / counts.sum()
    raise TypeError(f"unsupported input distribution {type(input_dist).__name__}")


def pred_exact(input_dist, dist: FunctionDistribution) -> PredEstimate:
    """Exact double expectation over an enumerable support.

    Also evaluates the dual (input-pair) form and checks agreement to 1e-12.
    A uniform-over-all-functions family short-circuits to its identity
    Pred = ||P_X||_2^2, which is exact for any input distribution.
    """
    xs, px = _input_support(input_dist)
    if isinstance(dist, UniformAll):
        return PredEstimate(value=float(np.sum(px * px)), method="exact")
    items = dist.enumerate()
    if len(items) > MAX_ENUM_SUPPORT:
        raise TooLarge(f"support of {len(items)} functions exceeds the exact cap")
    values = np.empty((len(items), xs.shape[0]))
    q = np.empty(len(items))
    for i, (f, p) in enumerate(items):
        values[i] = f.evaluate_batch(xs)
        q[i] = p
    uniform_q = np.allclose(q, q[0], rtol=0, atol=0)
    uniform_px = np.allclose(px, px[0], rtol=0, atol=0)
    if uniform_q and uniform_px:
        # +-1 entries: every intermediate sum is integer-valued, so float64
        # matmuls are exact below 2^53 and both forms agree to the last bit
        n_f, n_x = values.shape
        gram_f = values @ values.T
        gram_x = values.T @ values
        pred_fn = float(np.sum(gram_f * gram_f)) / (n_f * n_f * n_x * n_x)
        pred_in = float(np.sum(gram_x * gram_x)) / (n_f * n_f * n_x * n_x)
    else:
        corr = (values * px) @ values.T
        pred_fn = float(q @ (corr * corr) @ q)
        mix = (values.T * q) @ values
        pred_in = float(px @ (mix * mix) @ px)
    if abs(pred_fn - pred_in) > 1e-12:
        raise AssertionError(
            f"cross-predictability forms disagree: {pred_fn} vs {pred_in}"
        )
    # rounding within that agreement can carry a Pred of 0 or 1 (a family
    # of constants, say) just outside [0, 1]; anything further stays and fails
    clipped = min(max(pred_fn, 0.0), 1.0)
    if abs(pred_fn - clipped) <= 1e-12:
        pred_fn = clipped
    return PredEstimate(value=pred_fn, method="exact")


def pred_closed_form(dist: FunctionDistribution, input_dist) -> Optional[PredEstimate]:
    """Known closed forms; None when no formula applies."""
    if isinstance(input_dist, PointMassInput):
        return PredEstimate(value=1.0, method="closed_form")
    if isinstance(dist, UniformAll):
        _, px = _input_support(input_dist)
        return PredEstimate(value=float(np.sum(px * px)), method="closed_form")
    if isinstance(input_dist, UniformInputs):
        if isinstance(dist, ParityUniform):
            return PredEstimate(value=2.0 ** (-dist.n), method="closed_form")
        if isinstance(dist, MonomialK):
            return PredEstimate(
                value=1.0 / math.comb(dist.n, dist.k), method="closed_form"
            )
    return None


def _pair_estimate(draw_products, pairs: int, inner_x: int, rng, bootstrap: int) -> PredEstimate:
    """Monte-Carlo estimate from ``pairs`` draws of draw_products(), each the
    products f(x) g(x) of one function pair on ``inner_x`` sampled inputs.

    Each pair contributes its squared mean less the variance term, which
    makes the contribution unbiased; the estimate is their mean clipped to
    [0, 1], and its 95% CI is a bootstrap over the contributions, drawn from
    ``rng`` after the pairs.
    """
    contributions = np.empty(pairs)
    for i in range(pairs):
        c = draw_products()
        mean = c.mean()
        var = c.var(ddof=1)
        contributions[i] = mean * mean - var / inner_x
    value = float(np.clip(contributions.mean(), 0.0, 1.0))
    resample_means = np.empty(bootstrap)
    for b in range(bootstrap):
        idx = rng.integers(0, pairs, size=pairs)
        resample_means[b] = contributions[idx].mean()
    lo, hi = np.percentile(resample_means, [2.5, 97.5])
    return PredEstimate(
        value=value,
        method="monte_carlo",
        trials=pairs,
        ci95_halfwidth=float((hi - lo) / 2.0),
    )


def pred_monte_carlo(
    dist: FunctionDistribution,
    input_sampler,
    outer_pairs: int,
    inner_x: int,
    seed: int,
    bootstrap: int = 500,
) -> PredEstimate:
    """Pair-sampled estimator with the inner-mean bias correction.

    For each pair (F, F'), the squared inner-sample correlation overestimates
    the squared true correlation by Var/inner_x; subtracting the sample
    variance term makes each pair's contribution unbiased.  The 95% CI is a
    bootstrap over pair contributions.
    """
    if outer_pairs < 2 or inner_x < 2:
        raise ValueError("need outer_pairs >= 2 and inner_x >= 2")
    rng = np.random.default_rng(seed)

    def products():
        f = dist.draw(rng)
        f2 = dist.draw(rng)
        xs = input_sampler.sample(rng, inner_x)
        return f.evaluate_batch(xs) * f2.evaluate_batch(xs)

    return _pair_estimate(products, outer_pairs, inner_x, rng, bootstrap)


def pred_vs_random_net(
    h: FunctionId,
    arch,
    trials: int,
    seed: int,
    inner_x: int = 512,
    bootstrap: int = 500,
) -> PredEstimate:
    """Cross-predictability of a fixed target against random layered nets.

    Nets are fully connected with the given hidden widths, weights i.i.d.
    centered Gaussian of variance 1/previous-width, zero biases; outputs are
    thresholded at the activation midpoint before correlating.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    rng = np.random.default_rng(seed)

    def products():
        net = build_mlp(
            h.n, list(arch), activation=SIGMOID, init="gaussian_fan_in", rng=rng
        )
        xs = 1.0 - 2.0 * rng.integers(0, 2, size=(inner_x, h.n)).astype(np.float64)
        preds = predict_label(net.evaluate_batch(xs), SIGMOID)
        return h.evaluate_batch(xs) * preds

    return _pair_estimate(products, trials, inner_x, rng, bootstrap)


# ---------------------------------------------------------------------------
# inequality verifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewPredCheck:
    lhs: float
    rhs: float
    holds: bool
    lhs_parseval: float


def parity_bit_matrix(n: int) -> np.ndarray:
    """P[s, x] = popcount(s & x) mod 2, by Sylvester doubling."""
    p = np.zeros((1, 1), dtype=np.uint8)
    for _ in range(n):
        p = np.block([[p, p], [p, 1 - p]])
    return p


def check_newpred(f_table) -> NewPredCheck:
    """Verify sum_s (E f(X,Y) - E f(X, p_s(X)))^2 <= E f^2(X,Y).

    ``f_table`` has shape (2^n, 2): the value of f at (x, y) for y in {0, 1}
    (bit convention).  The subset sum is computed both directly and through
    the Walsh-basis identity 2^(-n-2) * sum_x (f(x,1) - f(x,0))^2.
    """
    f_table = np.asarray(f_table, dtype=np.float64)
    if f_table.ndim != 2 or f_table.shape[1] != 2:
        raise ValueError("f_table must have shape (2^n, 2)")
    size = f_table.shape[0]
    n = size.bit_length() - 1
    if 2 ** n != size:
        raise ValueError("f_table row count must be a power of two")
    if n > 10:
        raise TooLarge(f"exhaustive subset sum refused for n={n}")
    f0 = f_table[:, 0]
    f1 = f_table[:, 1]
    full_mean = (f0.sum() + f1.sum()) / (2 * size)
    pb = parity_bit_matrix(n)
    planted_means = np.where(pb == 1, f1[None, :], f0[None, :]).mean(axis=1)
    diffs = full_mean - planted_means
    lhs = float(diffs @ diffs)
    g = f1 - f0
    lhs_parseval = float((g @ g) * 2.0 ** (-n - 2))
    rhs = float((f0 @ f0 + f1 @ f1) / (2 * size))
    return NewPredCheck(
        lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-12), lhs_parseval=lhs_parseval
    )


@dataclass(frozen=True)
class BitInfoCheck:
    lhs: float
    rhs: float
    holds: bool
    pred: float


def check_bit_info_bound(g_table, m: int, dist: FunctionDistribution) -> BitInfoCheck:
    """Verify E_F ||P_{W|F} - P_W||_2^2 <= sqrt(Pred) for W = g(X, F(X)).

    ``g_table`` has shape (2^n, 2) with values in [0, m); inputs are uniform.
    All conditional laws are computed exactly by the full x-sum.
    """
    g_table = np.asarray(g_table)
    if g_table.ndim != 2 or g_table.shape[1] != 2:
        raise ValueError("g_table must have shape (2^n, 2)")
    size = g_table.shape[0]
    n = size.bit_length() - 1
    if 2 ** n != size:
        raise ValueError("g_table row count must be a power of two")
    if n > 8 or m > 64:
        raise TooLarge("bit-information audit capped at n <= 8, m <= 64")
    if g_table.min() < 0 or g_table.max() >= m:
        raise ValueError("g_table values must lie in [0, m)")
    items = dist.enumerate()
    xs = all_inputs_pm(n)
    rows = np.arange(size)
    cond = np.empty((len(items), m))
    q = np.empty(len(items))
    for i, (f, p) in enumerate(items):
        ybits = ((1.0 - f.evaluate_batch(xs)) / 2.0).astype(np.intp)
        w = g_table[rows, ybits]
        cond[i] = np.bincount(w, minlength=m) / size
        q[i] = p
    marginal = q @ cond
    dev = cond - marginal[None, :]
    lhs = float(q @ (dev * dev).sum(axis=1))
    pred = pred_exact(UniformInputs(n), dist).value
    rhs = math.sqrt(pred)
    return BitInfoCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-12), pred=pred)
