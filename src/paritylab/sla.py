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
from dataclasses import dataclass
from itertools import compress, islice
from typing import Callable, Optional, Sequence

import numpy as np

from . import descent as _descent
from .descent import DescentConfig
from .funcdist import (
    MAX_EXHAUSTIVE_N,
    DimensionMismatch,
    FunctionDistribution,
    FunctionId,
    SampleSource,
    UniformInputs,
    all_inputs_pm,
    gf2_absorb,
    gf2_solution,
    pm_to_mask,
)
from .netcore import LossKind, NeuralNet, SQUARED_ERROR, predict_label
from .crosspred import pred_closed_form


class UnboundedAlphabet(ValueError):
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
    sgd_as_sla: run_trace and run_traces run such machines on the lockstep
    stack instead of calling ``update``.
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
    """Run the machine for ``steps`` fresh samples; ``seed`` re-seeds the source.

    A machine made by sgd_as_sla runs as a one-row lockstep stack and never
    calls its ``update``; every other machine calls update(z, past symbols)
    once per step, the past symbols a read-only view of the trace so far."""
    if steps < 1:
        raise ValueError("need steps >= 1")
    src = source.with_seed(seed) if seed is not None else source
    if machine.budgeted_sgd is not None:
        return next(_lockstep_traces([machine.budgeted_sgd], [src], steps))
    xs, ys = src.take(steps)
    xs.setflags(write=False)
    zs = list(zip(xs, ys.tolist()))
    symbols: list = []
    for t, z in enumerate(zs):
        symbols.append(machine.update(z, _History(symbols, t)))
    return TraceRecord(pairs=tuple(zip(zs, symbols)))


class _History(Sequence):
    """The first ``length`` symbols of a list that only grows, read-only and
    copying nothing: a step's past symbols."""

    __slots__ = ("_symbols", "_length")

    def __init__(self, symbols: list, length: int):
        self._symbols, self._length = symbols, length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i):
        at = range(self._length)[i]
        if isinstance(at, range):
            return tuple(map(self._symbols.__getitem__, at))
        return self._symbols[at]

    def __iter__(self):
        return islice(self._symbols, self._length)


def run_traces(machines: Sequence[SlaStateMachine], sources: Sequence[SampleSource],
               steps: int) -> list:
    """[run_trace(m, s, steps) for m, s in zip(machines, sources)], trace for trace.

    Machines made by sgd_as_sla from one base net and one loss, with configs
    that differ only in seed, advance in lockstep as one (K, n_edges) weight
    stack: one stacked gradient and one step per sample step instead
    of K.  Each trace is still a function of its own samples only, so every
    symbol is run_trace's.  Every other machine runs through run_trace, and
    so does every machine when two entries share a source object (run_trace
    would draw their samples one trace after the other).
    """
    return list(_trace_stream(machines, sources, steps))


def _trace_stream(machines, sources, steps: int, first: Optional[int] = None):
    """run_traces' traces, yielded one at a time in machine order.  A stack
    runs all its steps when its first member is reached, then hands out its
    traces as its members come up; no yielded trace is kept.  With ``first``
    each trace comes as the symbol_stat values of its symbols[first:], and a
    stack whose every member reads _acc_bit_stat builds no symbols: its
    values are the accuracy bits of its descent."""
    if len(machines) != len(sources):
        raise ValueError("need one source per machine")
    if steps < 1:
        raise ValueError("need steps >= 1")
    distinct = len({id(src) for src in sources}) == len(sources)
    keys = [
        m.budgeted_sgd.stack_key() if distinct and m.budgeted_sgd is not None else None
        for m in machines
    ]
    stacks: dict = {}

    def take(i, key):  # a function, so that the generator keeps no trace it yielded
        if key is None:
            bits, trace = False, run_trace(machines[i], sources[i], steps)
        else:
            if key not in stacks:
                members = [j for j in range(i, len(keys)) if keys[j] == key]
                bits = first is not None and all(
                    machines[j].symbol_stat is _acc_bit_stat for j in members)
                stacks[key] = bits, _lockstep_traces(
                    [machines[j].budgeted_sgd for j in members], [sources[j] for j in members],
                    steps, first if bits else None)
            bits, traces = stacks[key]
            trace = next(traces)
        if bits or first is None:
            return trace
        return list(map(machines[i].symbol_stat or float, trace.symbols[first:]))
    yield from map(take, range(len(keys)), keys)


def _lockstep_traces(runs: Sequence[BudgetedSgd], sources, steps: int,
                     first: Optional[int] = None):
    """The traces of K budgeted-SGD machines that differ only in seed, one
    stack of the sample-descent loop.  A generator: every step runs before
    the first trace is built, then the traces are yielded one by one, in order.
    With ``first`` no step is recorded, and each trace comes as the list of
    its accuracy bits from step first + 1 on, as floats: _acc_bit_stat of its
    symbols[first:]."""
    net, loss, config = runs[0].net, runs[0].loss, runs[0].config
    seeds = [run.config.seed for run in runs]
    w = np.stack([run.w0 for run in runs])
    # every sample up front, filled source by source: step t reads the
    # contiguous (K, n) block[t - 1]
    block = np.empty((steps, len(runs), sources[0].n))
    labels = np.empty((steps, len(runs)))
    for k, src in enumerate(sources):
        block[:, k], labels[:, k] = src.take(steps)
    block.setflags(write=False)
    if first is not None:
        acc, = _descent._sample_descent(net, w, [(block, labels)], loss, config, seeds)
        yield from acc.reshape(steps, len(runs))[first:].T.astype(float).tolist()
        return
    rows = np.arange(len(runs))[:, None]
    # step t's symbols, for every row: the coordinates, their new values and
    # which of them changed
    shape = (steps, len(runs), min(config.coord_budget, net.n_edges))
    sel = np.empty(shape, dtype=np.intp)
    new = np.empty(shape)
    changed = np.empty(shape, dtype=bool)

    def record(t, acc, step_sel, step_changed, update, hit):
        sel[t - 1], new[t - 1], changed[t - 1] = step_sel, w[rows, step_sel], step_changed
    acc, = _descent._sample_descent(net, w, [(block, labels)], loss, config, seeds,
                                    on_step=record)
    acc = acc.reshape(steps, len(runs))
    for k in range(len(runs)):
        # step t's symbol is (the (coordinate, value) pairs that changed, acc bit)
        kept = map(tuple, map(compress, map(zip, sel[:, k].tolist(), new[:, k].tolist()),
                              changed[:, k].tolist()))
        zs = zip(block[:, k], labels[:, k].tolist())
        yield TraceRecord(pairs=tuple(zip(zs, zip(kept, acc[:, k].tolist()))))


# ---------------------------------------------------------------------------
# bounded-memory SGD as an SLA
# ---------------------------------------------------------------------------

def _acc_bit_stat(symbol) -> float:
    """The accuracy bit of a (state, accuracy bit) symbol."""
    return float(symbol[1])


def sgd_as_sla(net: NeuralNet, loss: LossKind, config: DescentConfig) -> SlaStateMachine:
    """Wrap coordinate descent as an SLA over changed-variable symbols.

    Each symbol is (((edge_index, new_weight), ...), accuracy_bit).  The
    per-step noise and coordinate streams are derived from (config.seed, t),
    so the machine is a pure function of (sample, history) and its trace
    matches cd_run on the same source step for step.

    ``replay`` is the definition of the state a history leads to, and
    ``update`` is the definition of a step: it replays its history from the
    initial weights, takes the sample gradient there, clamps it into
    [-B, B], picks its coordinates and runs descent's one step on them.  It
    keeps nothing between calls.  run_trace and run_traces never call it;
    they run these machines as lockstep stacks, whose symbols are update's.
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

    def replay(symbols) -> NeuralNet:
        w = w0.copy()
        for changed, _ in symbols:
            for idx, value in changed:
                w[idx] = value
        return net.with_weights(w)

    def update(z, history):
        x, y = z
        now = replay(history)
        grad, output = now.gradient_array(x, y, loss)
        grad = _descent.clamp_psi(grad, config.overflow_b)[None]
        w, t, seeds = now.weights.values[None].copy(), len(history) + 1, (config.seed,)
        sel = _descent._select_coords(grad, config.coord_budget, config.coord_rule, seeds, t)
        before = w[0, sel[0]]
        _descent._step(w, grad, config, seeds, t, sel)
        changed = w[0, sel[0]] != before
        return (tuple(zip(sel[0][changed].tolist(), w[0, sel[0]][changed].tolist())),
                bool(_descent._acc_bit(net, output, y, loss)))

    return SlaStateMachine(
        alphabet_size=alphabet,
        update=update,
        symbol_stat=_acc_bit_stat,
        replay=replay,
        budgeted_sgd=BudgetedSgd(net, loss, config, w0),
    )


def gf2_solver_sla(n: int) -> SlaStateMachine:
    """Full-memory baseline on the first n inputs: maintains a reduced GF(2)
    system (funcdist's gf2_absorb form) over x[:n] as its symbol.

    Predicts each fresh label from the current partial solution before
    absorbing the row (rows inconsistent with the state are skipped, so null
    streams keep the state consistent).  The alphabet is the set of all
    reduced systems, far beyond any finite-alphabet failure regime.
    """

    def update(z, history):
        system = history[-1][0] if history else ()
        x, y = z
        xbits = pm_to_mask(x[:n])
        acc = bool(1.0 - 2.0 * ((gf2_solution(system) & xbits).bit_count() & 1) == y)
        absorbed = gf2_absorb(system, xbits, 1 if y < 0 else 0)
        return (system if absorbed is None else absorbed, acc)

    return SlaStateMachine(
        alphabet_size=math.inf,
        update=update,
        symbol_stat=_acc_bit_stat,
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
    # imported here so that no other lab command loads scipy at start-up;
    # betaincinv(a, b, q) is beta.ppf(q, a, b), bit for bit
    from scipy.special import betaincinv

    if successes == 0:
        lo = 0.0
    else:
        lo = float(betaincinv(successes, total - successes + 1, alpha / 2))
    if successes == total:
        hi = 1.0
    else:
        hi = float(betaincinv(successes + 1, total - successes, 1 - alpha / 2))
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
        return dataclasses.asdict(self)


STATISTICS = ("prediction_count", "final_acc_bit")  # the decision statistics


def distinguish_cap(dist: FunctionDistribution, steps: int, trials: int,
                    statistic: str = "prediction_count", cap_constant: float = 1.0,
                    pred_value: Optional[float] = None) -> float:
    """The theoretical cap 1/2 + c * Pred^(1/24), clamped to 1, of a
    distinguish_experiment with these arguments; ValueError if they are bad."""
    if steps < 1:
        raise ValueError("need steps >= 1")
    if trials < 20:
        raise ValueError("need at least 20 trials per hypothesis")
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if not (math.isfinite(cap_constant) and cap_constant >= 0):
        raise ValueError(f"cap_constant must be finite and >= 0, got {cap_constant}")
    if pred_value is None:
        closed = pred_closed_form(dist, UniformInputs(dist.n))
        if closed is None:
            raise ValueError(
                "no closed-form cross-predictability; pass pred_value explicitly"
            )
        pred_value = closed.value
    return min(1.0, 0.5 + cap_constant * pred_value ** (1.0 / 24.0))


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
    The theoretical cap is distinguish_cap's.
    """
    cap = distinguish_cap(dist, steps, trials, statistic, cap_constant, pred_value)
    inputs = UniformInputs(dist.n)

    n_cal = calibration_trials if calibration_trials is not None else trials
    phases = ((0, n_cal), (1, trials), (2, trials))
    # each trial's one seed feeds both its sample source and its machine
    trial_seeds = [(tag, _derived_seed(seed, tag, i))
                   for tag, count in phases for i in range(count)]
    fn_rng = _descent._stream(seed, 3)
    sources = [
        SampleSource.planted(dist.draw(fn_rng), inputs, seed=s)
        if tag == 1 else SampleSource.null(inputs, seed=s)
        for tag, s in trial_seeds
    ]
    machines = [machine if isinstance(machine, SlaStateMachine) else machine(s)
                for _, s in trial_seeds]
    # every phase's traces run together (in lockstep where they stack), and
    # each is reduced to its statistic as it arrives: the sum of symbol_stat
    # over the steps it reads, the last one or the second half
    first = steps - 1 if statistic == "final_acc_bit" else steps // 2
    stats = np.array([float(sum(values))
                      for values in _trace_stream(machines, sources, steps, first)])
    cal_stats, planted, null = np.split(stats, [n_cal, n_cal + trials])
    distinct = np.unique(cal_stats)
    if len(distinct) <= 2:
        # binary statistic: the only nondegenerate cut is between its two values
        threshold = float(distinct.mean())
    else:
        threshold = float(np.quantile(cal_stats, 0.95, method="higher"))
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
    trials: int = 0,
    seed: int = 0,
    loss: LossKind = SQUARED_ERROR,
) -> float:
    """P(thresholded eval = f(X)) under uniform inputs, from ``trials``
    sampled inputs, or over all 2^n when trials is 0 (n <= MAX_EXHAUSTIVE_N).
    The decision cut is the output activation's midpoint (BCE nets cut at 1/2)."""
    n = f.n
    if net.n_inputs != n:
        raise DimensionMismatch("net and function input sizes differ")
    if trials:
        xs = UniformInputs(n).sample(np.random.default_rng(seed), trials)
    elif n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive evaluation capped at n <= {MAX_EXHAUSTIVE_N}; pass trials")
    else:
        xs = all_inputs_pm(n)
    preds = predict_label(net.evaluate_batch(xs), net.activation_of(net.graph.output), loss)
    return float(np.mean(preds == f.evaluate_batch(xs)))


def _check_bound(name: str, positive: dict, nonnegative: dict):
    """Refuse a cap's arguments unless each is finite, and > 0 (``positive``)
    or >= 0 (``nonnegative``): an infinite one times a zero one is NaN, and
    min(1, NaN) is a cap of 1."""
    for key, value in {**positive, **nonnegative}.items():
        nonneg = key in nonnegative
        if not (math.isfinite(value) and (value >= 0 if nonneg else value > 0)):
            raise ValueError(f"{name} needs {key} finite and {'>=' if nonneg else '>'} 0, "
                             f"got {value}")


def bound_gd(gamma: float, b: float, steps: float, m: float, n: float, sigma2: float) -> float:
    """Accuracy cap for bounded-noisy population GD:
    min(1, 1/2 + gamma*B*T*sqrt(m * 2^-n / (2*pi*sigma^2)))."""
    _check_bound("bound_gd", dict(gamma=gamma, b=b, m=m, n=n, sigma2=sigma2), dict(steps=steps))
    return min(1.0, 0.5 + gamma * b * steps * math.sqrt(m * 2.0 ** (-n) / (2 * math.pi * sigma2)))


def bound_sgd(
    steps: float, m: float, b: float, gamma: float, n: float, p: float, c_const: float = 1.0
) -> float:
    """Accuracy cap for perturbed noisy SGD: min(1, 1/2 + 2p + c*T*m^4*B^2*gamma^2/n).
    The O(.) constant is the caller's ``c_const``."""
    _check_bound("bound_sgd", dict(m=m, b=b, gamma=gamma, n=n),
                 dict(steps=steps, p=p, c_const=c_const))
    return min(1.0, 0.5 + 2 * p + c_const * steps * m ** 4 * b ** 2 * gamma ** 2 / n)


def bound_sgd_elaborated(steps: float, m: float, b: float, gamma: float, n: float, p: float) -> float:
    """The fully explicit variant: 1/2 + 2p + T*(360 m^4 B^2 gamma^2 / (pi n)
    + 7 (e/4)^(n/4)), clamped to 1."""
    _check_bound("bound_sgd_elaborated", dict(m=m, b=b, gamma=gamma, n=n), dict(steps=steps, p=p))
    tail = 7.0 * (math.e / 4.0) ** (n / 4.0)
    return min(1.0, 0.5 + 2 * p + steps * (360 * m ** 4 * b ** 2 * gamma ** 2 / (math.pi * n) + tail))


def bound_gd_crosspred(
    pred: float, gamma: float, overflow: float, n_edges: float, steps: float, sigma: float
) -> float:
    """Provisional general-distribution GD cap: 1/2 + gamma*A*Pred^(1/4)*sqrt(|E|)*S/sigma.
    Transcribed from an elaboration whose constant is unsettled; treat as
    indicative only."""
    _check_bound("bound_gd_crosspred",
                 dict(pred=pred, gamma=gamma, overflow=overflow, n_edges=n_edges, sigma=sigma),
                 dict(steps=steps))
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
