"""Descent algorithms: population GD, single-sample SGD, coordinate descent.

All variants share one config: learning rate, per-sample derivative overflow
clamp (population GD only), weight projection range, per-edge additive noise,
initial-weight perturbation, optional fixed-point weight storage, and a
per-step coordinate budget.  Every run is deterministic given the config seed
and the sample source's seed; per-step noise and coordinate choices come from
independent child streams so that algorithm variants can be compared
step-for-step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .netcore import (
    BudgetExceeded,
    DimensionMismatch,
    LossKind,
    NeuralNet,
    QuantizationSpec,
    SQUARED_ERROR,
    WeightVector,
    clamp_psi,  # noqa: F401  (re-exported: Psi_B of the population update)
    decision_cut,
)


class EmptyPopulation(Exception):
    """Population gradient requested over zero samples."""


class Diverged(Exception):
    """A descent run ended with non-finite weights."""


def _check_finite(w, algorithm: str, steps: int):
    if not np.all(np.isfinite(w)):
        raise Diverged(f"{algorithm}: non-finite weights after {steps} steps")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseSpec:
    """Per-edge additive noise: none, Gaussian(variance), or Uniform(halfwidth)."""

    kind: str = "none"  # 'none' | 'gaussian' | 'uniform'
    variance: float = 0.0
    halfwidth: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "uniform"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.variance < 0 or self.halfwidth < 0:
            raise ValueError("noise parameters must be non-negative")

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

    ``overflow_b`` clamps per-sample derivative contributions in population GD;
    ``weight_clamp_b`` projects stored weights into [-B, B]; ``coord_budget``
    None means plain (S)GD, an integer enables coordinate descent.
    """

    gamma: float
    steps: int
    overflow_b: float = math.inf
    weight_clamp_b: float = math.inf
    noise: NoiseSpec = NoiseSpec.none()
    init_perturb_variance: float = 0.0
    quantization: Optional[QuantizationSpec] = None
    coord_budget: Optional[int] = None
    coord_rule: str = "topk"  # 'topk' | 'randomk'
    seed: int = 0

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.overflow_b <= 0 or self.weight_clamp_b <= 0:
            raise ValueError("clamp ranges must be positive")
        if self.init_perturb_variance < 0:
            raise ValueError("init_perturb_variance must be >= 0")
        if self.coord_budget is not None and self.coord_budget < 1:
            raise ValueError("coord_budget must be >= 1 when set")
        if self.coord_rule not in ("topk", "randomk"):
            raise ValueError(f"unknown coord_rule {self.coord_rule!r}")


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
    def from_samples(cls, samples) -> "Population":
        """Uniform mass on an explicit (x, y) list."""
        if len(samples) == 0:
            raise EmptyPopulation("population has no samples")
        xs = np.array([x for x, _ in samples], dtype=np.float64)
        ys = np.array([y for _, y in samples], dtype=np.float64)
        probs = np.full(len(samples), 1.0 / len(samples))
        return cls(xs, ys, probs)

    @classmethod
    def uniform_grid(cls, n: int, labeler: Callable[[np.ndarray], np.ndarray]) -> "Population":
        """The full 2^n grid of +-1 inputs, labeled by ``labeler`` on the batch."""
        if n > MAX_GRID_N:
            raise BudgetExceeded(
                f"population GD over the full grid refused for n={n} > {MAX_GRID_N}"
            )
        idx = np.arange(2 ** n, dtype=np.uint64)
        bits = (idx[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1
        xs = 1.0 - 2.0 * bits.astype(np.float64)
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


def _changed(graph_edges, old_w, new_w, idx=None):
    if idx is None:
        idx = np.nonzero(new_w != old_w)[0]
    else:
        idx = idx[new_w[idx] != old_w[idx]]
    return tuple((graph_edges[i], float(new_w[i])) for i in idx)


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
        delta = None
        if config.noise.is_active:
            delta = config.noise.draw(_stream(config.seed, _STREAM_NOISE, t), w.size)
        old = w.copy() if record_steps else None
        grad, overflow_hit = gradient()
        update = _apply_update(w, grad, config.gamma, delta, config.weight_clamp_b,
                               config.quantization)
        if record_steps:
            log.steps.append(
                StepReport(
                    t=t,
                    changed_edges=_changed(edges, old, w),
                    max_update=float(np.max(np.abs(update))) if update.size else 0.0,
                    overflow_hit=overflow_hit,
                )
            )
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
) -> NeuralNet:
    """One single-sample step: w' = w - gamma * dL/dw + delta, projected into
    [-B, B], then quantized for storage if configured.  This is sgd_run's
    step, run on a copy of the net's weights."""
    x, y = sample
    grad, _ = net.gradient_array(x, y, loss)
    w = net.weights.values.copy()
    _apply_update(w, grad, gamma, delta, weight_clamp_b, quantization)
    return net.with_weights(w)


def _apply_update(w, grad, gamma, delta, weight_clamp_b, quantization, sel=None):
    """The update rule of gd_step, gd_run, sgd_step and sgd_run, written into
    the weight buffer w: w - gamma * grad + delta, projected into [-B, B] and
    quantized as configured; only on the coordinates ``sel`` when given.
    grad is scaled in place into gamma * grad, which is returned (at sel)."""
    update = np.multiply(grad, gamma, out=grad)
    if isinstance(delta, WeightVector):
        delta = delta.values
    if delta is not None:
        delta = np.asarray(delta, dtype=np.float64)
    if sel is not None:
        touched = w[sel] - update[sel]
        if delta is not None:
            touched += delta[sel]
        w[sel] = _store(touched, weight_clamp_b, quantization)
        return update[sel]
    w -= update
    if delta is not None:
        w += delta
    if math.isfinite(weight_clamp_b) or quantization is not None:
        w[...] = _store(w, weight_clamp_b, quantization)
    return update


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
    w = prepare_initial_weights(net, config)
    return _sample_descent(net, w, source, loss, config, record_steps, trainable, None)


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
    w = prepare_initial_weights(net, config)
    return _sample_descent(
        net, w, source, loss, config, record_steps, None, config.coord_budget
    )


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


def budgeted_step(w, grads, config: DescentConfig, seeds, t):
    """Step t of coordinate descent for a stack of K runs that share
    ``config`` but for its seed: row k of w and grads (K, n_edges) is run k's
    weights and sample gradient, and seeds[k] its seed.

    Each row updates only its ``coord_budget`` coordinates (top-k by
    |gradient|, or a random k from its (seed, t) stream) to w - gamma * grad,
    plus the noise of its (seed, t) stream, projected into [-B, B] and
    quantized.  Returns the coordinates (K, k), their new values (K, k) and
    gamma * grad at them (K, k); w itself is not written.
    """
    sel = _select_coords(grads, config.coord_budget, config.coord_rule, seeds, t)
    rows = np.arange(w.shape[0])[:, None]
    update = config.gamma * grads[rows, sel]
    touched = w[rows, sel] - update
    if config.noise.is_active:
        for k, seed in enumerate(seeds):
            delta = config.noise.draw(_stream(seed, _STREAM_NOISE, t), w.shape[1])
            touched[k] += delta[sel[k]]
    return sel, _store(touched, config.weight_clamp_b, config.quantization), update


@np.errstate(over="ignore", invalid="ignore")  # non-finite weights raise Diverged
def _sample_descent(net, w, source, loss, config, record_steps, trainable, budget):
    """The loop of sgd_run and cd_run.  ``w`` is the run's own weight buffer
    and ``grad`` its gradient buffer: each step writes both in place, and the
    net is wrapped around w once, when the run ends."""
    grad = np.zeros_like(w)
    gradient = net._gradient_into(w, grad)
    cut = decision_cut(net.activation_of(net.graph.output), loss)
    log = RunLog(algorithm="cd" if budget is not None else "sgd")
    edges = net.graph.edges
    if trainable is not None:
        trainable = np.asarray(trainable, dtype=np.intp)
    for t in range(1, config.steps + 1):
        x, y = source.next_sample()
        old = w.copy() if record_steps else None
        grad, output = gradient(net._check_x(x), y, loss)
        acc = bool(_acc_bit(net, output, y, loss, cut))
        log.acc_bits.append(acc)
        if budget is not None:
            sel, touched, update = budgeted_step(w[None], grad[None], config, (config.seed,), t)
            sel, update = sel[0], update[0]
            w[sel] = touched[0]
        else:
            delta = None
            if config.noise.is_active:
                delta = config.noise.draw(_stream(config.seed, _STREAM_NOISE, t), w.size)
            sel = trainable
            update = _apply_update(w, grad, config.gamma, delta, config.weight_clamp_b,
                                   config.quantization, sel)
        if record_steps:
            log.steps.append(
                StepReport(
                    t=t,
                    changed_edges=_changed(edges, old, w, idx=sel),
                    max_update=float(np.max(np.abs(update))) if update.size else 0.0,
                    overflow_hit=False,
                    acc_bit=acc,
                )
            )
    _check_finite(w, log.algorithm, config.steps)
    return net.with_weights(w), log
