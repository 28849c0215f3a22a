"""Descent algorithms: population GD, single-sample SGD, coordinate descent.

All variants share one config and one update rule (_apply_update, through
_step): learning rate, derivative overflow clamp Psi_B (on each sample of a
population, or on a single-sample gradient), weight projection range,
per-edge additive noise, initial-weight perturbation, optional fixed-point
weight storage, and a per-step coordinate budget.  Every run is deterministic
given the config seed and the sample source's seed; per-step noise and
coordinate choices come from independent child streams so that algorithm
variants can be compared step-for-step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .funcdist import all_inputs_pm
from .netcore import (
    BudgetExceeded,
    DimensionMismatch,
    Diverged,
    LossKind,
    NeuralNet,
    QuantizationSpec,
    SQUARED_ERROR,
    WeightVector,
    clamp_psi,
    decision_cut,
)


class EmptyPopulation(Exception):
    """Population gradient requested over zero samples."""


def _check_finite(w, algorithm: str, steps: int):
    if not np.all(np.isfinite(w)):
        raise Diverged(f"{algorithm}: non-finite weights after {steps} steps")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# noise kind -> the one parameter it reads
NOISE_KINDS = {"none": None, "gaussian": "variance", "uniform": "halfwidth"}
COORD_RULES = ("topk", "randomk")


@dataclass(frozen=True)
class NoiseSpec:
    """Per-edge additive noise: none, Gaussian(variance), or Uniform(halfwidth).
    A non-zero parameter that the kind does not read is refused."""

    kind: str = "none"  # one of NOISE_KINDS
    variance: float = 0.0
    halfwidth: float = 0.0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not (self.variance >= 0 and self.halfwidth >= 0):  # NaN fails too
            raise ValueError("noise parameters must be non-negative")
        for knob in ("variance", "halfwidth"):
            if getattr(self, knob) and knob != NOISE_KINDS[self.kind]:
                raise ValueError(f"noise kind {self.kind!r} reads no {knob}: it must be 0")

    @classmethod
    def none(cls):
        return cls("none")

    @classmethod
    def gaussian(cls, variance: float):
        return cls("gaussian", variance=variance)

    @classmethod
    def uniform(cls, halfwidth: float):
        return cls("uniform", halfwidth=halfwidth)

    @property
    def is_active(self) -> bool:
        # Gaussian(0) is equivalent to no noise
        if self.kind == "gaussian":
            return self.variance > 0
        if self.kind == "uniform":
            return self.halfwidth > 0
        return False

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, math.sqrt(self.variance), size=size)
        if self.kind == "uniform":
            return rng.uniform(-self.halfwidth, self.halfwidth, size=size)
        return np.zeros(size)


@dataclass(frozen=True)
class DescentConfig:
    """Shared knobs for every descent variant.

    ``overflow_b`` clamps derivatives into [-B, B]: each sample's contribution
    in population GD, the sample gradient in SGD and CD.  ``weight_clamp_b``
    projects stored weights into [-B, B]; ``coord_budget`` None means plain
    (S)GD, an integer enables coordinate descent.
    """

    gamma: float
    steps: int
    overflow_b: float = math.inf
    weight_clamp_b: float = math.inf
    noise: NoiseSpec = NoiseSpec.none()
    init_perturb_variance: float = 0.0
    quantization: Optional[QuantizationSpec] = None
    coord_budget: Optional[int] = None
    coord_rule: str = "topk"  # one of COORD_RULES
    seed: int = 0

    def __post_init__(self):
        if not self.gamma >= 0:  # NaN fails too
            raise ValueError("gamma must be >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if not (self.overflow_b > 0 and self.weight_clamp_b > 0):  # NaN fails too
            raise ValueError("clamp ranges must be positive")
        if not self.init_perturb_variance >= 0:
            raise ValueError("init_perturb_variance must be >= 0")
        if self.coord_budget is not None and self.coord_budget < 1:
            raise ValueError("coord_budget must be >= 1 when set")
        if self.coord_rule not in COORD_RULES:
            raise ValueError(f"unknown coord_rule {self.coord_rule!r}")
        if self.coord_rule != "topk" and self.coord_budget is None:
            raise ValueError(f"coord_rule {self.coord_rule!r} needs a coord_budget")


@dataclass(frozen=True)
class StepReport:
    """What one step changed; feeds the changed-variable-list reduction."""

    t: int
    changed_edges: tuple  # ((u, v), new_weight) pairs
    max_update: float  # max |gamma * clamped derivative| before noise
    overflow_hit: bool
    acc_bit: Optional[bool] = None

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "changed": [{"edge": list(e), "w": w} for e, w in self.changed_edges],
            "max_update": self.max_update,
            "overflow_hit": self.overflow_hit,
            "acc_bit": self.acc_bit,
        }


@dataclass
class RunLog:
    """Per-run record: step reports (optional) and the per-step accuracy bits."""

    algorithm: str
    steps: list = field(default_factory=list)
    acc_bits: list = field(default_factory=list)

    def write_jsonl(self, fileobj):
        for report in self.steps:
            fileobj.write(json.dumps(report.to_json()) + "\n")


# ---------------------------------------------------------------------------
# populations (for exact-expectation GD)
# ---------------------------------------------------------------------------

MAX_GRID_N = 20


@dataclass(frozen=True)
class Population:
    """Finite labeled population with explicit probabilities."""

    xs: np.ndarray  # (N, n)
    ys: np.ndarray  # (N,)
    probs: np.ndarray  # (N,), sums to 1

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if xs.ndim != 2 or ys.shape != (xs.shape[0],) or probs.shape != ys.shape:
            raise DimensionMismatch("population arrays have inconsistent shapes")
        if xs.shape[0] == 0:
            raise EmptyPopulation("population has no samples")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError("population probabilities must sum to 1")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform_grid(cls, n: int, labeler: Callable[[np.ndarray], np.ndarray]) -> "Population":
        """The full 2^n grid of +-1 inputs, labeled by ``labeler`` on the batch."""
        if n > MAX_GRID_N:
            raise BudgetExceeded(
                f"population GD over the full grid refused for n={n} > {MAX_GRID_N}"
            )
        xs = all_inputs_pm(n)
        ys = np.asarray(labeler(xs), dtype=np.float64)
        probs = np.full(2 ** n, 2.0 ** (-n))
        return cls(xs, ys, probs)


# ---------------------------------------------------------------------------
# seeded stream layout
# ---------------------------------------------------------------------------

_STREAM_INIT = 0
_STREAM_NOISE = 1
_STREAM_COORD = 2


def _stream(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _noise(config: DescentConfig, seeds, t: int, shape) -> Optional[np.ndarray]:
    """Step t's noise for weights of ``shape``, (n_edges,) or (K, n_edges),
    row k from the (seeds[k], t) stream; None when the config has no noise."""
    if not config.noise.is_active:
        return None
    return np.array([config.noise.draw(_stream(seed, _STREAM_NOISE, t), shape[-1])
                     for seed in seeds]).reshape(shape)


def prepare_initial_weights(net: NeuralNet, config: DescentConfig) -> np.ndarray:
    """Initial perturbation, then the algorithms' [-B, B] projection, then storage
    quantization (stored variables live on the lattice from step 0)."""
    w = net.weights.values.copy()
    if config.init_perturb_variance > 0:
        rng = _stream(config.seed, _STREAM_INIT)
        w = w + rng.normal(0.0, math.sqrt(config.init_perturb_variance), size=w.shape)
    return _store(w, config.weight_clamp_b, config.quantization)


def _store(w, weight_clamp_b, quantization):
    """Project weights into [-B, B], then quantize them for storage, as configured."""
    if math.isfinite(weight_clamp_b):
        w = np.clip(w, -weight_clamp_b, weight_clamp_b)
    if quantization is not None:
        w = quantization.quantize(w)
    return w


def _step_report(t, edges, w, changed, update, overflow_hit=False, acc_bit=None):
    """Step t's report: the edges at the indices ``changed`` with their new
    weights in w, and the largest |gamma * derivative| in ``update``."""
    return StepReport(t, tuple((edges[i], float(w[i])) for i in changed),
                      float(np.max(np.abs(update))) if update.size else 0.0, overflow_hit, acc_bit)


def _acc_bit(net: NeuralNet, output, y, loss: LossKind, cut=None):
    """Whether the output falls on the label's side of the decision cut: a
    bool for a float output and label, a bool array for arrays of them.

    The label is read where the loss compares the output with it: squared loss
    fits y itself (a +-1 label or a 0/1 bit), BCE fits the bit (1 - y) / 2.
    For +-1 labels this is predict_label(output, ...) == y.  ``cut`` is the
    net's decision cut for this loss, when the caller already has it.
    """
    if cut is None:
        cut = decision_cut(net.activation_of(net.graph.output), loss)
    target = (1.0 - y) / 2.0 if loss.kind == "bce" else y
    return (output >= cut) == (target >= cut)


# ---------------------------------------------------------------------------
# population gradient descent
# ---------------------------------------------------------------------------

def gd_step(
    net: NeuralNet,
    population: Population,
    loss: LossKind,
    gamma: float,
    delta=None,
    overflow_b: float = math.inf,
    weight_clamp_b: float = math.inf,
    quantization: Optional[QuantizationSpec] = None,
) -> NeuralNet:
    """One exact-expectation step: w' = w - gamma * E[Psi_B(dL/dw)] + delta,
    then projected / quantized if configured.  This is gd_run's step, run on
    a copy of the net's weights."""
    expected, _ = net.population_gradient(
        population.xs, population.ys, population.probs, loss, overflow_b
    )
    w = net.weights.values.copy()
    _apply_update(w, expected, gamma, delta, weight_clamp_b, quantization)
    return net.with_weights(w)


@np.errstate(over="ignore", invalid="ignore")  # non-finite weights raise Diverged
def gd_run(
    net: NeuralNet,
    population: Population,
    loss: LossKind,
    config: DescentConfig,
    record_steps: bool = True,
):
    """T bounded-noisy-GD steps with fresh per-step noise from the seeded stream.

    The run owns one weight buffer and one gradient buffer: each step writes
    the population gradient (through the workspace NeuralNet._population_into
    binds once) and then the update into them in place, and the net is
    wrapped around the weights once, when the run ends."""
    if config.coord_budget is not None:
        raise ValueError("gd_run is full gradient descent; coord_budget must be None")
    w = prepare_initial_weights(net, config)
    gradient = net._population_into(w, np.empty_like(w), population.xs, population.ys,
                                    population.probs, loss, config.overflow_b)
    log = RunLog(algorithm="gd")
    edges = net.graph.edges
    for t in range(1, config.steps + 1):
        old = w.copy() if record_steps else None
        grad, overflow_hit = gradient()
        update = _step(w, grad, config, (config.seed,), t)
        if record_steps:
            log.steps.append(_step_report(t, edges, w, np.nonzero(w != old)[0], update,
                                          overflow_hit))
    _check_finite(w, "gd", config.steps)
    return net.with_weights(w), log


# ---------------------------------------------------------------------------
# stochastic gradient descent
# ---------------------------------------------------------------------------

def sgd_step(
    net: NeuralNet,
    sample,
    loss: LossKind,
    gamma: float,
    weight_clamp_b: float = math.inf,
    delta=None,
    quantization: Optional[QuantizationSpec] = None,
    overflow_b: float = math.inf,
) -> NeuralNet:
    """One single-sample step: w' = w - gamma * Psi_B(dL/dw) + delta,
    projected into [-B, B], then quantized for storage if configured.  This
    is sgd_run's step, run on a copy of the net's weights."""
    x, y = sample
    grad, _ = net.gradient_array(x, y, loss)
    w = net.weights.values.copy()
    _apply_update(w, clamp_psi(grad, overflow_b), gamma, delta, weight_clamp_b, quantization)
    return net.with_weights(w)


def _apply_update(w, grad, gamma, delta, weight_clamp_b, quantization, sel=None):
    """The one update rule, written into the weight buffer w (one run's, or
    a stack's rows): w - gamma * grad + delta, projected into [-B, B] and
    quantized as configured.  Without ``sel`` every edge is written and grad
    is scaled in place into gamma * grad, which is returned.  ``sel``, a
    (K, k) array of edge indices into a stack w (K, n_edges), writes only
    those entries of each row; gamma * grad is computed and returned only
    there, and grad is not written."""
    if delta is not None:
        delta = np.asarray(delta.values if isinstance(delta, WeightVector) else delta,
                           dtype=np.float64)
    if sel is not None:
        rows = np.arange(len(w))[:, None]
        update = gamma * grad[rows, sel]
        touched = w[rows, sel] - update
        if delta is not None:
            touched += delta[rows, sel]
        w[rows, sel] = _store(touched, weight_clamp_b, quantization)
        return update
    update = np.multiply(grad, gamma, out=grad)
    w -= update
    if delta is not None:
        w += delta
    if math.isfinite(weight_clamp_b) or quantization is not None:
        w[...] = _store(w, weight_clamp_b, quantization)
    return update


def _step(w, grad, config: DescentConfig, seeds, t: int, sel=None):
    """Step t of the runs in w, one run's weights (seeds its one seed) or a
    stack's rows (seeds[k] row k's): _apply_update with the config's gamma,
    projection and quantization and step t's noise, on the edges ``sel``
    (all when None).  Returns gamma * grad (at sel)."""
    return _apply_update(w, grad, config.gamma, _noise(config, seeds, t, w.shape),
                         config.weight_clamp_b, config.quantization, sel)


_SAMPLE_CHUNK = 1024  # the most samples a single run takes at once: flat memory


def sgd_run(
    net: NeuralNet,
    source,
    loss: LossKind,
    config: DescentConfig,
    record_steps: bool = True,
    trainable: Optional[Sequence[int]] = None,
):
    """T single-sample steps on i.i.d. draws from the source.

    ``trainable`` optionally restricts updates (and noise) to an edge-index
    subset, e.g. the readout of an engineered net; other weights stay fixed.
    The per-step accuracy bit records whether the pre-update net predicted the
    fresh sample's label.
    """
    if config.coord_budget is not None:
        raise ValueError("sgd_run updates every edge; coord_budget must be None")
    return _single_run(net, source, loss, config, record_steps, trainable)


def cd_run(
    net: NeuralNet,
    source,
    loss: LossKind,
    config: DescentConfig,
    record_steps: bool = True,
):
    """Coordinate descent: compute the full sample gradient, update at most
    ``coord_budget`` edges per step (TopK by |gradient| or a random subset)."""
    if config.coord_budget is None:
        raise ValueError("cd_run requires a finite coord_budget")
    return _single_run(net, source, loss, config, record_steps, None)


def _single_run(net, source, loss, config, record_steps, trainable):
    """sgd_run and cd_run: the loop from the prepared initial weights, fed
    from the source in takes of at most _SAMPLE_CHUNK samples."""
    w = prepare_initial_weights(net, config)
    log = RunLog(algorithm="sgd" if config.coord_budget is None else "cd")
    edges = net.graph.edges

    def report(t, acc, sel, changed, update, hit):
        log.steps.append(_step_report(t, edges, w, sel[0][changed[0]], update, bool(hit[0]),
                                      bool(acc)))
    blocks = (net._check_batch(*source.take(min(_SAMPLE_CHUNK, config.steps - start)))
              for start in range(0, config.steps, _SAMPLE_CHUNK))
    for acc in _sample_descent(net, w, blocks, loss, config, (config.seed,), trainable,
                               report if record_steps else None):
        log.acc_bits += acc.tolist()
    _check_finite(w, log.algorithm, config.steps)
    return net.with_weights(w), log


def _select_coords(grads, budget, rule, seeds, t):
    """Step t's coordinates of each row of a gradient stack (K, n_edges), as
    a (K, min(budget, n_edges)) array ascending along each row.  The
    coordinate stream of (seeds[k], t) is derived only when the rule reads it."""
    k_rows, n_e = grads.shape
    if budget >= n_e:
        return np.broadcast_to(np.arange(n_e), (k_rows, n_e))
    if rule == "randomk":
        return np.array([
            np.sort(_stream(seed, _STREAM_COORD, t).choice(n_e, size=budget, replace=False))
            for seed in seeds
        ]).reshape(k_rows, budget)
    # topk: largest |gradient| first, ties by ascending edge index, NaN last
    size = np.abs(grads)
    size[np.isnan(size)] = -1.0
    if budget == 1:
        return np.argmax(size, axis=1)[:, None]  # the first of the largest
    order = np.argsort(-size, axis=1, kind="stable")
    return np.sort(order[:, :budget], axis=1)


def _sample_descent(net, w, blocks, loss, config, seeds, trainable=None, on_step=None):
    """The one sample-descent loop.  w (C-contiguous) is one run's weights
    (n_edges,) or a stack (K, n_edges) of runs that share ``config`` but for
    their seeds, row k's seeds[k]; a one-row stack runs at lead shape (),
    where its gradient costs less.  ``blocks`` yields samples (xs, ys) of
    shapes (steps, [K,] n) and (steps, [K]).  Each step takes the sample
    gradient, clips it into [-B, B] when overflow_b is finite, and runs _step
    in place on the edges it writes: each row's coord_budget coordinates
    (_select_coords, which reads the clipped gradient) when the config has a
    budget, else the edges ``trainable`` (all when None).  A generator: after
    each block it yields the block's accuracy bits.
    on_step(t, acc, sel, changed, update, hit), when given, runs after each
    step: sel (K, k) the edges each row wrote, changed whether each one's
    weight changed, update gamma * grad there, and hit (K,) whether the clip
    fired on each row's gradient."""
    if w.ndim == 2 and len(w) == 1:
        w = w[0]
        blocks = ((xs[:, 0], ys[:, 0]) for xs, ys in blocks)
    grad = np.zeros_like(w)
    gradient = net._gradient_into(w, grad, loss)
    cut = decision_cut(net.activation_of(net.graph.output), loss)
    # the update reads every lead shape as rows: views of w and grad
    w_rows, grad_rows = w.reshape(-1, w.shape[-1]), grad.reshape(-1, w.shape[-1])
    rows = np.arange(len(w_rows))[:, None]
    record, t = on_step is not None, 0
    hit = np.zeros(len(w_rows), dtype=bool)  # an infinite B never clips
    # without a budget every step writes the same edges; a recorded step
    # names them, so it writes through their indices
    edges = np.arange(w.shape[-1]) if trainable is None else np.asarray(trainable, dtype=np.intp)
    fixed = None if trainable is None and not record else np.tile(edges, (len(w_rows), 1))
    for xs, ys in blocks:
        acc = np.empty(ys.shape, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):  # callers raise Diverged
            for i in range(len(ys)):
                t += 1
                _, output = gradient(xs[i], ys[i])
                if math.isfinite(config.overflow_b):
                    if record:
                        hit = (np.abs(grad_rows) > config.overflow_b).any(axis=1)
                    np.clip(grad, -config.overflow_b, config.overflow_b, out=grad)
                acc[i] = _acc_bit(net, output, ys[i], loss, cut)
                sel = fixed if config.coord_budget is None else _select_coords(
                    grad_rows, config.coord_budget, config.coord_rule, seeds, t)
                before = w_rows[rows, sel] if record else None
                update = _step(w_rows, grad_rows, config, seeds, t, sel)
                if record:
                    on_step(t, acc[i], sel, w_rows[rows, sel] != before, update, hit)
        yield acc
