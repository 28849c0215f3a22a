"""Sequential learning algorithms, the bounded-memory SGD reduction, and
null-vs-planted distinguishability experiments.

An SLA maps (fresh sample, all past symbols) to a new symbol from a finite
alphabet.  Coordinate descent with quantized weights reduces to one by
emitting, per step, the changed-variable list (edge index, new lattice value)
plus the running accuracy bit; replaying the symbols reconstructs the net.

The optimal distinguisher of the theory is not computable, so experiments fix
a directional decision statistic (final accuracy bit, or a held-out
prediction count), calibrate its threshold on held-out null runs at a 5%
false-alarm rate, and report the empirical decision accuracy with an exact
binomial confidence interval.  This lower-bounds the optimal test's accuracy.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.stats import beta as _beta_dist

from . import descent as _descent
from .descent import DescentConfig
from .funcdist import (
    DimensionMismatch,
    FunctionDistribution,
    FunctionId,
    SampleSource,
    UniformInputs,
    all_inputs_pm,
)
from .netcore import LossKind, NeuralNet, SQUARED_ERROR, predict_label
from .crosspred import pred_closed_form


class UnboundedAlphabet(Exception):
    """The SGD-as-SLA reduction needs quantized weights and a coordinate budget."""


# ---------------------------------------------------------------------------
# machines and traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BudgetedSgd:
    """What an sgd_as_sla machine is: coordinate descent on ``net`` under
    ``loss`` and ``config``, from the stored initial weights ``w0``.

    run_traces advances machines whose net (the same object), loss and
    config (up to its seed) agree as one weight stack.
    """

    net: NeuralNet
    loss: LossKind
    config: DescentConfig
    w0: np.ndarray

    def stack_key(self):
        return (id(self.net), self.loss, dataclasses.replace(self.config, seed=0))


@dataclass(frozen=True)
class SlaStateMachine:
    """A sequential learning algorithm: update(z, past symbols) -> symbol.

    ``symbol_stat`` optionally reads a per-step scalar (e.g. an accuracy bit)
    out of a symbol, for decision statistics.  ``replay`` optionally rebuilds
    the underlying state from a symbol sequence.  ``budgeted_sgd`` is set by
    sgd_as_sla and lets run_traces run such machines in lockstep.
    """

    alphabet_size: float  # int or math.inf
    update: Callable
    symbol_stat: Optional[Callable] = None
    replay: Optional[Callable] = None
    budgeted_sgd: Optional[BudgetedSgd] = None


@dataclass(frozen=True)
class TraceRecord:
    """The (Z_i, W_i) sequence of one SLA run."""

    pairs: tuple

    @property
    def symbols(self) -> tuple:
        return tuple(w for _, w in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def write_jsonl(self, fileobj):
        """Audit dump: one {"t", "x", "y", "w"} record per step."""
        import json

        for t, ((x, y), w) in enumerate(self.pairs, start=1):
            fileobj.write(json.dumps({
                "t": t,
                "x": [float(v) for v in np.asarray(x).ravel()],
                "y": float(y),
                "w": _json_symbol(w),
            }) + "\n")


def _json_symbol(symbol):
    if isinstance(symbol, (bool, np.bool_)):
        return bool(symbol)
    if isinstance(symbol, (int, float, np.integer, np.floating)):
        return float(symbol)
    if isinstance(symbol, (tuple, list)):
        return [_json_symbol(s) for s in symbol]
    return repr(symbol)


def run_trace(
    machine: SlaStateMachine, source: SampleSource, steps: int, seed: Optional[int] = None
) -> TraceRecord:
    """Run the machine for ``steps`` fresh samples; ``seed`` re-seeds the source."""
    if steps < 1:
        raise ValueError("need steps >= 1")
    src = source.with_seed(seed) if seed is not None else source
    symbols: list = []
    pairs = []
    for _ in range(steps):
        z = src.next_sample()
        w = machine.update(z, tuple(symbols))
        symbols.append(w)
        pairs.append((z, w))
    return TraceRecord(pairs=tuple(pairs))


def run_traces(machines: Sequence[SlaStateMachine], sources: Sequence[SampleSource],
               steps: int) -> list:
    """[run_trace(m, s, steps) for m, s in zip(machines, sources)], trace for trace.

    Machines made by sgd_as_sla from one base net and one loss, with configs
    that differ only in seed, advance in lockstep as one (K, n_edges) weight
    stack: one stacked gradient and one budgeted step per sample step instead
    of K.  Each trace is still a function of its own samples only, so every
    symbol is run_trace's.  Every other machine runs through run_trace, and
    so does every machine when two entries share a source object (run_trace
    would draw their samples one trace after the other).
    """
    if len(machines) != len(sources):
        raise ValueError("need one source per machine")
    if steps < 1:
        raise ValueError("need steps >= 1")
    traces: list = [None] * len(machines)
    stacks: dict = {}
    distinct = len({id(src) for src in sources}) == len(sources)
    for i, machine in enumerate(machines):
        if distinct and machine.budgeted_sgd is not None:
            stacks.setdefault(machine.budgeted_sgd.stack_key(), []).append(i)
        else:
            traces[i] = run_trace(machine, sources[i], steps)
    for members in stacks.values():
        stacked = _lockstep_traces(
            [machines[i].budgeted_sgd for i in members], [sources[i] for i in members], steps
        )
        for i, trace in zip(members, stacked):
            traces[i] = trace
    return traces


def _lockstep_traces(runs: Sequence[BudgetedSgd], sources, steps: int) -> list:
    """The traces of K budgeted-SGD machines that differ only in seed, with
    their weights as the rows of one stack."""
    net, loss, config = runs[0].net, runs[0].loss, runs[0].config
    seeds = [run.config.seed for run in runs]
    w = np.stack([run.w0 for run in runs])
    rows = np.arange(len(runs))[:, None]
    pairs: list = [[] for _ in runs]
    for t in range(1, steps + 1):
        zs = [src.next_sample() for src in sources]
        xs = np.array([x for x, _ in zs])
        ys = np.array([y for _, y in zs])
        grads, outputs = net.gradient_stack(w, xs, ys, loss)
        accs = _descent._acc_bit(net, outputs, ys, loss).tolist()
        sel, touched, _ = _descent.budgeted_step(w, grads, config, seeds, t)
        old = w[rows, sel]
        w[rows, sel] = touched
        for k, (z, coords, new, was) in enumerate(
            zip(zs, sel.tolist(), touched.tolist(), old.tolist())
        ):
            changed = tuple((i, v) for i, v, o in zip(coords, new, was) if v != o)
            pairs[k].append((z, (changed, accs[k])))
    return [TraceRecord(pairs=tuple(p)) for p in pairs]


# ---------------------------------------------------------------------------
# bounded-memory SGD as an SLA
# ---------------------------------------------------------------------------

def sgd_as_sla(net: NeuralNet, loss: LossKind, config: DescentConfig) -> SlaStateMachine:
    """Wrap coordinate descent as an SLA over changed-variable symbols.

    Each symbol is (((edge_index, new_weight), ...), accuracy_bit).  The
    per-step noise and coordinate streams are derived from (config.seed, t),
    so the machine is a pure function of (sample, history) and its trace
    matches cd_run on the same source step for step.

    ``replay`` is the definition of the state a history leads to.  ``update``
    caches the weights of the last history it saw: when the next history
    extends that one (the same symbol objects, in order) it applies only the
    new symbols, and otherwise it replays from the initial weights, so any
    history, rewound or interleaved with another, gets replay's answer.
    """
    if config.coord_budget is None:
        raise UnboundedAlphabet("coordinate budget required for a finite alphabet")
    if config.quantization is None:
        raise UnboundedAlphabet("weight quantization required for a finite alphabet")
    w0 = _descent.prepare_initial_weights(net, config)
    w0.setflags(write=False)
    n_e = net.n_edges
    k = min(config.coord_budget, n_e)
    levels = 2 ** config.quantization.total_bits
    alphabet = 2 * sum(
        math.comb(n_e, j) * levels ** j for j in range(k + 1)
    )
    lock = threading.Lock()
    cached_w = w0.copy()
    applied: list = []  # the symbols cached_w reflects, in order
    gradient = net._gradient_into(cached_w, np.zeros(n_e))

    def apply(w, symbols):
        for changed, _ in symbols:
            for idx, value in changed:
                w[idx] = value

    def replay(symbols) -> NeuralNet:
        w = w0.copy()
        apply(w, symbols)
        return net.with_weights(w)

    def update(z, history):
        t = len(history) + 1
        x, y = z
        x = net._check_x(x)
        with lock:
            if len(history) < len(applied) or not all(map(operator.is_, history, applied)):
                cached_w[:] = w0
                applied.clear()
            fresh = history[len(applied):]
            apply(cached_w, fresh)
            applied.extend(fresh)
            grad, output = gradient(x, y, loss)
            sel, touched, _ = _descent.budgeted_step(cached_w[None], grad[None], config,
                                                     (config.seed,), t)
            changed = tuple(
                (int(i), float(v)) for i, v in zip(sel[0], touched[0]) if v != cached_w[i]
            )
        return (changed, bool(_descent._acc_bit(net, output, y, loss)))

    return SlaStateMachine(
        alphabet_size=alphabet,
        update=update,
        symbol_stat=lambda symbol: float(symbol[1]),
        replay=replay,
        budgeted_sgd=BudgetedSgd(net, loss, config, w0),
    )


def gf2_solver_sla(n: int) -> SlaStateMachine:
    """Full-memory baseline: maintains a reduced GF(2) system as its symbol.

    Predicts each fresh label from the current partial solution before
    absorbing the row (rows inconsistent with the state are skipped, so null
    streams keep the state consistent).  The alphabet is the set of all
    reduced systems, far beyond any finite-alphabet failure regime.
    """

    def reduce_row(pivots, mask, rhs):
        for col, pmask, prhs in pivots:
            if (mask >> col) & 1:
                mask ^= pmask
                rhs ^= prhs
        return mask, rhs

    def solution_mask(pivots) -> int:
        s = 0
        for col, _, rhs in pivots:
            if rhs:
                s |= 1 << col
        return s

    def update(z, history):
        pivots = history[-1][0] if history else ()
        x, y = z
        xbits = 0
        for i in range(n):
            if x[i] < 0:
                xbits |= 1 << i
        s = solution_mask(pivots)
        pred = 1.0 - 2.0 * ((s & xbits).bit_count() & 1)
        acc = bool(pred == y)
        mask, rhs = reduce_row(pivots, xbits, 1 if y < 0 else 0)
        if mask != 0:
            col = (mask & -mask).bit_length() - 1
            new = []
            for c, pmask, prhs in pivots:
                if (pmask >> col) & 1:
                    new.append((c, pmask ^ mask, prhs ^ rhs))
                else:
                    new.append((c, pmask, prhs))
            new.append((col, mask, rhs))
            pivots = tuple(sorted(new))
        return (pivots, acc)

    return SlaStateMachine(
        alphabet_size=math.inf,
        update=update,
        symbol_stat=lambda symbol: float(symbol[1]),
    )


def constant_sla(symbol=0) -> SlaStateMachine:
    """Ignores its input entirely; the canonical uninformative machine."""
    return SlaStateMachine(
        alphabet_size=1,
        update=lambda z, history: symbol,
        symbol_stat=lambda s: 0.0,
    )


# ---------------------------------------------------------------------------
# distinguishability experiments
# ---------------------------------------------------------------------------

def _clopper_pearson(successes: int, total: int, alpha: float = 0.05):
    if successes == 0:
        lo = 0.0
    else:
        lo = float(_beta_dist.ppf(alpha / 2, successes, total - successes + 1))
    if successes == total:
        hi = 1.0
    else:
        hi = float(_beta_dist.ppf(1 - alpha / 2, successes + 1, total - successes))
    return lo, hi


@dataclass(frozen=True)
class DistinguishReport:
    trials_per_hypothesis: int
    accuracy: float
    ci_low: float
    ci_high: float
    ci95: float
    theoretical_cap: float
    statistic: str
    threshold: float

    def to_json(self) -> dict:
        return {
            "trials_per_hypothesis": self.trials_per_hypothesis,
            "accuracy": self.accuracy,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "ci95": self.ci95,
            "theoretical_cap": self.theoretical_cap,
            "statistic": self.statistic,
            "threshold": self.threshold,
        }


def _trace_statistic(trace: TraceRecord, machine: SlaStateMachine, statistic: str) -> float:
    stat_of = machine.symbol_stat or (lambda s: float(s))
    symbols = trace.symbols
    if statistic == "final_acc_bit":
        return stat_of(symbols[-1])
    if statistic == "prediction_count":
        half = len(symbols) // 2
        return float(sum(stat_of(s) for s in symbols[half:]))
    raise ValueError(f"unknown statistic {statistic!r}")


def distinguish_experiment(
    machine,
    dist: FunctionDistribution,
    steps: int,
    trials: int,
    statistic: str = "prediction_count",
    seed: int = 0,
    cap_constant: float = 1.0,
    pred_value: Optional[float] = None,
    calibration_trials: Optional[int] = None,
) -> DistinguishReport:
    """Balanced null-vs-planted decision experiment for one SLA.

    ``machine`` is an SlaStateMachine, or a callable seed -> machine for
    algorithms whose internal randomness should vary per trial.  Runs
    ``trials`` traces per hypothesis and decides 'planted' when the statistic
    exceeds a threshold calibrated on held-out null runs (95th percentile).
    The theoretical cap is 1/2 + c * Pred^(1/24), clamped to 1.
    """
    if trials < 20:
        raise ValueError("need at least 20 trials per hypothesis")
    n = dist.n
    inputs = UniformInputs(n)
    if pred_value is None:
        closed = pred_closed_form(dist, inputs)
        if closed is None:
            raise ValueError(
                "no closed-form cross-predictability; pass pred_value explicitly"
            )
        pred_value = closed.value
    cap = min(1.0, 0.5 + cap_constant * pred_value ** (1.0 / 24.0))

    def make_machine(tag: int, index: int) -> SlaStateMachine:
        if isinstance(machine, SlaStateMachine):
            return machine
        return machine(_derived_seed(seed, tag, index))

    def phase_stats(tag: int, sources) -> np.ndarray:
        # the phase's traces run together (in lockstep where they stack)
        machines = [make_machine(tag, i) for i in range(len(sources))]
        traces = run_traces(machines, sources, steps)
        return np.array([
            _trace_statistic(trace, mach, statistic) for trace, mach in zip(traces, machines)
        ])

    n_cal = calibration_trials if calibration_trials is not None else trials
    cal_stats = phase_stats(0, [
        SampleSource.null(inputs, seed=_derived_seed(seed, 0, i)) for i in range(n_cal)
    ])
    distinct = np.unique(cal_stats)
    if len(distinct) <= 2:
        # binary statistic: the only nondegenerate cut is between its two values
        threshold = float(distinct.mean())
    else:
        threshold = float(np.quantile(cal_stats, 0.95, method="higher"))

    fn_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    planted = phase_stats(1, [
        SampleSource.planted(dist.draw(fn_rng), inputs, seed=_derived_seed(seed, 1, i))
        for i in range(trials)
    ])
    null = phase_stats(2, [
        SampleSource.null(inputs, seed=_derived_seed(seed, 2, i)) for i in range(trials)
    ])
    correct = int(np.count_nonzero(planted > threshold) + np.count_nonzero(null <= threshold))
    total = 2 * trials
    accuracy = correct / total
    lo, hi = _clopper_pearson(correct, total)
    return DistinguishReport(
        trials_per_hypothesis=trials,
        accuracy=accuracy,
        ci_low=lo,
        ci_high=hi,
        ci95=(hi - lo) / 2.0,
        theoretical_cap=cap,
        statistic=statistic,
        threshold=threshold,
    )


def _derived_seed(seed: int, tag: int, index: int) -> int:
    return int(
        np.random.SeedSequence(seed, spawn_key=(tag, index)).generate_state(1)[0]
    )


# ---------------------------------------------------------------------------
# accuracy evaluation and theorem-bound calculators
# ---------------------------------------------------------------------------

def accuracy_eval(
    net: NeuralNet,
    f: FunctionId,
    input_dist=None,
    trials: int = 0,
    seed: int = 0,
    loss: LossKind = SQUARED_ERROR,
    threshold: Optional[float] = None,
) -> float:
    """P(thresholded eval = f(X)): exhaustive for n <= 12, else Monte Carlo.

    The decision threshold defaults to the output activation's midpoint (BCE
    nets cut at 1/2); pass ``threshold`` to override.
    """
    n = f.n
    if net.n_inputs != n:
        raise DimensionMismatch("net and function input sizes differ")
    act = net.activation_of(net.graph.output)
    if trials:
        if input_dist is None:
            input_dist = UniformInputs(n)
        xs = input_dist.sample(np.random.default_rng(seed), trials)
    else:
        if input_dist is not None and not isinstance(input_dist, UniformInputs):
            raise ValueError("exhaustive evaluation assumes uniform inputs")
        if n > 12:
            raise ValueError("exhaustive evaluation capped at n <= 12; pass trials")
        xs = all_inputs_pm(n)
    preds = predict_label(net.evaluate_batch(xs), act, loss, threshold=threshold)
    return float(np.mean(preds == f.evaluate_batch(xs)))


def bound_gd(gamma: float, b: float, steps: float, m: float, n: float, sigma2: float) -> float:
    """Accuracy cap for bounded-noisy population GD:
    min(1, 1/2 + gamma*B*T*sqrt(m * 2^-n / (2*pi*sigma^2)))."""
    if min(gamma, b, m, n, sigma2) <= 0 or steps < 0:
        raise ValueError("all bound_gd arguments must be positive (steps >= 0)")
    return min(1.0, 0.5 + gamma * b * steps * math.sqrt(m * 2.0 ** (-n) / (2 * math.pi * sigma2)))


def bound_sgd(
    steps: float, m: float, b: float, gamma: float, n: float, p: float, c_const: float = 1.0
) -> float:
    """Accuracy cap for perturbed noisy SGD: min(1, 1/2 + 2p + c*T*m^4*B^2*gamma^2/n).
    The O(.) constant is the caller's ``c_const``."""
    if min(m, b, gamma, n) <= 0 or steps < 0 or p < 0:
        raise ValueError("bad bound_sgd arguments")
    return min(1.0, 0.5 + 2 * p + c_const * steps * m ** 4 * b ** 2 * gamma ** 2 / n)


def bound_sgd_elaborated(steps: float, m: float, b: float, gamma: float, n: float, p: float) -> float:
    """The fully explicit variant: 1/2 + 2p + T*(360 m^4 B^2 gamma^2 / (pi n)
    + 7 (e/4)^(n/4)), clamped to 1."""
    if min(m, b, gamma, n) <= 0 or steps < 0 or p < 0:
        raise ValueError("bad bound_sgd_elaborated arguments")
    tail = 7.0 * (math.e / 4.0) ** (n / 4.0)
    return min(1.0, 0.5 + 2 * p + steps * (360 * m ** 4 * b ** 2 * gamma ** 2 / (math.pi * n) + tail))


def bound_gd_crosspred(
    pred: float, gamma: float, overflow: float, n_edges: float, steps: float, sigma: float
) -> float:
    """Provisional general-distribution GD cap: 1/2 + gamma*A*Pred^(1/4)*sqrt(|E|)*S/sigma.
    Transcribed from an elaboration whose constant is unsettled; treat as
    indicative only."""
    if min(pred, gamma, overflow, n_edges, sigma) <= 0 or steps < 0:
        raise ValueError("bad bound_gd_crosspred arguments")
    return min(1.0, 0.5 + gamma * overflow * pred ** 0.25 * math.sqrt(n_edges) * steps / sigma)


# ---------------------------------------------------------------------------
# empirical total variation
# ---------------------------------------------------------------------------

def tv_empirical(samples_a, samples_b, bin_width=None, kd_depth: Optional[int] = None) -> float:
    """Half-L1 distance between histogram measures on a shared binning.

    ``bin_width`` bins each axis into floor(v / width) cells (scalar or
    per-axis widths); alternatively ``kd_depth`` splits at pooled medians,
    cycling axes.  Coarse bins can only underestimate the true distance.
    """
    a = np.asarray(samples_a, dtype=np.float64)
    b = np.asarray(samples_b, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if b.ndim == 1:
        b = b[:, None]
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DimensionMismatch("sample sets must share one dimension")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("sample sets must be non-empty")
    if (bin_width is None) == (kd_depth is None):
        raise ValueError("specify exactly one of bin_width or kd_depth")
    if bin_width is not None:
        width = np.broadcast_to(np.asarray(bin_width, dtype=np.float64), (a.shape[1],))
        if np.any(width <= 0):
            raise ValueError("bin widths must be positive")
        keys_a = np.floor(a / width).astype(np.int64)
        keys_b = np.floor(b / width).astype(np.int64)
    else:
        keys_a, keys_b = _kd_keys(a, b, kd_depth)
    return _half_l1(keys_a, keys_b)


def _half_l1(keys_a, keys_b) -> float:
    from collections import Counter

    ca = Counter(map(tuple, keys_a))
    cb = Counter(map(tuple, keys_b))
    na, nb = sum(ca.values()), sum(cb.values())
    total = 0.0
    for key in ca.keys() | cb.keys():
        total += abs(ca.get(key, 0) / na - cb.get(key, 0) / nb)
    return 0.5 * total


def _kd_keys(a, b, depth: int):
    if depth < 1:
        raise ValueError("kd_depth must be >= 1")
    pooled = np.vstack([a, b])
    leaf_a = np.zeros(a.shape[0], dtype=np.int64)
    leaf_b = np.zeros(b.shape[0], dtype=np.int64)

    def split(mask_p, mask_a, mask_b, level):
        if level == depth or not mask_p.any():
            return
        axis = level % a.shape[1]
        cut = np.median(pooled[mask_p, axis])
        right_p = mask_p & (pooled[:, axis] > cut)
        right_a = mask_a & (a[:, axis] > cut)
        right_b = mask_b & (b[:, axis] > cut)
        leaf_a[right_a] |= 1 << level
        leaf_b[right_b] |= 1 << level
        split(mask_p & ~right_p, mask_a & ~right_a, mask_b & ~right_b, level + 1)
        split(right_p, right_a, right_b, level + 1)

    split(
        np.ones(pooled.shape[0], dtype=bool),
        np.ones(a.shape[0], dtype=bool),
        np.ones(b.shape[0], dtype=bool),
        0,
    )
    return leaf_a[:, None], leaf_b[:, None]
