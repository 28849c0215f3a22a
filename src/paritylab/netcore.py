"""Weighted-DAG neural nets: construction, evaluation, exact gradients, quantization.

A net is a triple (activation, graph, weights).  The graph is acyclic with one
constant vertex (value 1), input vertices, and a single output vertex;
evaluation applies the activation to each interior vertex's weighted
in-sum, sources first.  Gradients are exact reverse-mode derivatives of the
configured loss with respect to every edge weight.

Every net runs on one level plan (_LevelPlan): its interior vertices, levelled
by depth, each level a dense layer evaluated with matrix products.  A dense
MLP numbered layer by layer, as build_mlp builds it, reads its weights
through views of the edge vector; any other DAG gathers each level's sources
(the constant, inputs, any earlier level) and scatters its weights into a
dense block with structural zeros.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np


class CycleDetected(Exception):
    """The digraph contains a directed cycle."""


class InvalidGraph(Exception):
    """A structural invariant of the net graph is violated."""


class DimensionMismatch(Exception):
    """Input vector length does not match the net's input size."""


class BudgetExceeded(Exception):
    """Requested construction exceeds the configured size budget."""


class Diverged(Exception):
    """A run's weights, or an evaluation's pre-activations, are not finite."""


# ---------------------------------------------------------------------------
# activations and losses
# ---------------------------------------------------------------------------

def _sigmoid(z, out=None, scratch=None):
    # overflow-safe: only exponentiates non-positive values.  With e =
    # exp(-|z|) this is 1/(1+e) for z >= 0 and e/(1+e) otherwise, bit for bit:
    # max(e, z >= 0) / (1+e), with one division.  e, then the result, goes in
    # ``out`` and 1+e in ``scratch``, each allocated when not given (``out``
    # as an array even for a 0-d z); ``out`` may be z.  One element (a
    # single-sample output) takes the same operations on scalars, far cheaper.
    if z.size == 1:
        v = z.item()
        e = np.exp(-abs(v))
        out = np.empty_like(z) if out is None else out
        out[...] = max(e, v >= 0) / (e + 1.0)
        return out
    upper = z >= 0
    e = np.abs(z, out=np.empty_like(z) if out is None else out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denominator = e + 1.0 if scratch is None else np.add(e, 1.0, out=scratch)
    np.maximum(e, upper, out=e)
    e /= denominator
    return e


def _identity(z, out=None, scratch=None):
    if out is None:
        return z
    np.copyto(out, z)
    return out


# f'(z, f(z)), written into ``out`` when it is given; without it, scalars
# take Python's operators rather than a ufunc call each
def _sigmoid_slope(z, fz, out=None):
    if out is None:
        return fz * (1.0 - fz)
    return np.multiply(fz, np.subtract(1.0, fz, out=out), out=out)


def _tanh_slope(z, fz, out=None):
    if out is None:
        return 1.0 - fz * fz
    return np.subtract(1.0, np.multiply(fz, fz, out=out), out=out)


def _relu_slope(z, fz, out=None):
    # one-sided subgradient: derivative 0 at z == 0
    if out is None:
        return (z > 0).astype(np.float64)
    out[...] = z > 0  # a cast on assignment: np.greater's cast into float is slower
    return out


def _cosine_slope(z, fz, out=None):
    if out is None:
        return -np.sin(z)
    return np.negative(np.sin(z, out=out), out=out)


def _identity_slope(z, fz, out=None):
    out = np.empty_like(z) if out is None else out
    out[...] = 1.0
    return out


_ACT_TABLE = {
    # kind: (f(z, out, scratch), f'(z, f(z), out), midpoint); f writes into
    # ``out`` when it is given
    "sigmoid": (_sigmoid, _sigmoid_slope, 0.5),
    "tanh": (lambda z, out=None, scratch=None: np.tanh(z, out=out), _tanh_slope, 0.0),
    "relu": (lambda z, out=None, scratch=None: np.maximum(z, 0.0, out=out), _relu_slope, 0.0),
    "cosine": (lambda z, out=None, scratch=None: np.cos(z, out=out), _cosine_slope, 0.0),
    "identity": (_identity, _identity_slope, 0.0),
}


@dataclass(frozen=True)
class Activation:
    """Pointwise nonlinearity."""

    kind: str

    def __post_init__(self):
        if self.kind not in _ACT_TABLE:
            raise ValueError(f"unknown activation kind: {self.kind!r}")

    def __call__(self, z):
        """f(z)."""
        return _ACT_TABLE[self.kind][0](np.asarray(z, dtype=np.float64))

    def derivative(self, z, value=None):
        """d f / d z, optionally reusing the already-computed value f(z)."""
        z = np.asarray(z, dtype=np.float64)
        return _ACT_TABLE[self.kind][1](z, self(z) if value is None else value)

    @property
    def midpoint(self) -> float:
        """Default decision threshold for this activation's output range."""
        return _ACT_TABLE[self.kind][2]


SIGMOID = Activation("sigmoid")
TANH = Activation("tanh")
RELU = Activation("relu")
COSINE = Activation("cosine")
IDENTITY = Activation("identity")

ACTIVATIONS = {a.kind: a for a in (SIGMOID, TANH, RELU, COSINE, IDENTITY)}


@dataclass(frozen=True)
class LossKind:
    """Loss on (eval, label): squared error L(d)=d^2 on +-1 labels, or logistic BCE.

    BCE reads the label through the canonical bit map b = (1 - y) / 2 and
    expects the net output in (0, 1).
    """

    kind: str  # 'squared' | 'bce'

    def value(self, output, y):
        if self.kind == "squared":
            d = output - y
            return d * d
        t = (1.0 - y) / 2.0
        p = np.clip(output, 1e-12, 1.0 - 1e-12)
        return -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p))

    def d_output(self, output, y):
        """dL/d(output).  For BCE with a sigmoid output the gradient code uses
        the cancelled form p - t instead of this quotient."""
        if self.kind == "squared":
            return 2.0 * (output - y)
        t = (1.0 - y) / 2.0
        p = np.clip(output, 1e-12, 1.0 - 1e-12)
        return (p - t) / (p * (1.0 - p))


SQUARED_ERROR = LossKind("squared")
LOGISTIC_BCE = LossKind("bce")

LOSSES = {"squared": SQUARED_ERROR, "bce": LOGISTIC_BCE}


def predict_label(output, activation: Activation, loss: LossKind = SQUARED_ERROR):
    """Threshold a net output into a +-1 label.

    Squared-error nets predict +1 at or above the activation midpoint.  BCE
    nets model P(bit = 1); bit 1 maps to label -1 under b -> 1 - 2b.
    """
    output = np.asarray(output)
    cut = decision_cut(activation, loss)
    if loss.kind == "bce":
        return np.where(output >= cut, -1.0, 1.0)
    return np.where(output >= cut, 1.0, -1.0)


def decision_cut(activation: Activation, loss: LossKind) -> float:
    """Default output threshold: the activation midpoint for squared error,
    1/2 for BCE, whose output is P(bit = 1)."""
    return 0.5 if loss.kind == "bce" else activation.midpoint


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetGraph:
    """Acyclic digraph with constant / input / output designations.

    Invariants (checked at construction): no directed cycle; the constant and
    input vertices are exactly the in-degree-0 vertices; the output is not
    one of them; every non-output vertex has a directed path to the output.
    """

    vertex_count: int
    input_size: int
    edges: tuple
    constant: int
    inputs: tuple
    output: int

    def __post_init__(self):
        edges = tuple(sorted((int(u), int(v)) for u, v in self.edges))
        if len(set(edges)) != len(edges):
            raise InvalidGraph("duplicate edges (simple digraphs only)")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "inputs", tuple(int(v) for v in self.inputs))
        if len(self.inputs) != self.input_size:
            raise InvalidGraph("input vertex list does not match input_size")
        self._validate()

    def _validate(self):
        n_v = self.vertex_count
        special = (self.constant, *self.inputs, self.output)
        if len(set((self.constant, *self.inputs))) != 1 + self.input_size:
            raise InvalidGraph("constant/input vertices must be distinct")
        for v in special:
            if not (0 <= v < n_v):
                raise InvalidGraph(f"special vertex {v} out of range")
        if self.output in (self.constant, *self.inputs):
            raise InvalidGraph("the output must be an interior vertex")
        indeg = [0] * n_v
        for u, v in self.edges:
            if not (0 <= u < n_v and 0 <= v < n_v):
                raise InvalidGraph(f"edge ({u},{v}) out of range")
            if u == v:
                raise CycleDetected(f"self-loop at vertex {u}")
            indeg[v] += 1
        sources = {self.constant, *self.inputs}
        for v in range(n_v):
            if v in sources:
                if indeg[v] != 0:
                    raise InvalidGraph(f"source vertex {v} has incoming edges")
            elif indeg[v] == 0:
                raise InvalidGraph(f"vertex {v} has in-degree 0 but is not a source")
        topological_order(self)  # raises CycleDetected on a cycle
        # reachability of the output from every vertex
        reaches = {self.output}
        rev = {v: [] for v in range(n_v)}
        for u, v in self.edges:
            rev[v].append(u)
        stack = [self.output]
        while stack:
            v = stack.pop()
            for u in rev[v]:
                if u not in reaches:
                    reaches.add(u)
                    stack.append(u)
        for v in range(n_v):
            if v != self.output and v not in reaches:
                raise InvalidGraph(f"vertex {v} has no path to the output")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def interior_vertices(self) -> tuple:
        sources = {self.constant, *self.inputs}
        return tuple(v for v in range(self.vertex_count) if v not in sources)

    def edge_index(self) -> dict:
        return _edge_index(self)


def topological_order(graph: NetGraph):
    """Deterministic topological order of the non-source vertices.

    Kahn's algorithm with a min-heap, so ties break by ascending vertex id.
    Raises CycleDetected if no complete order exists.
    """
    n_v = graph.vertex_count
    indeg = [0] * n_v
    fwd = {v: [] for v in range(n_v)}
    for u, v in graph.edges:
        indeg[v] += 1
        fwd[u].append(v)
    sources = {graph.constant, *graph.inputs}
    ready = [v for v in range(n_v) if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        if v not in sources:
            order.append(v)
        for w in fwd[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != n_v - len(sources):
        raise CycleDetected("graph contains a directed cycle")
    return order


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

class WeightVector(Mapping):
    """Immutable map edge -> weight, stored as an array aligned with graph.edges."""

    __slots__ = ("graph", "values")

    def __init__(self, graph: NetGraph, values):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (graph.n_edges,):
            raise InvalidGraph(
                f"weight vector has {values.shape} entries for {graph.n_edges} edges"
            )
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("WeightVector is immutable")

    @classmethod
    def from_dict(cls, graph: NetGraph, mapping: Mapping) -> "WeightVector":
        mapping = {(int(u), int(v)): float(w) for (u, v), w in mapping.items()}
        if set(mapping) != set(graph.edges):
            raise InvalidGraph("weight keys must equal the edge set exactly")
        return cls(graph, [mapping[e] for e in graph.edges])

    @classmethod
    def zeros(cls, graph: NetGraph) -> "WeightVector":
        return cls(graph, np.zeros(graph.n_edges))

    def __getitem__(self, edge):
        return float(self.values[_edge_index(self.graph)[tuple(edge)]])

    def __iter__(self) -> Iterator:
        return iter(self.graph.edges)

    def __len__(self) -> int:
        return self.graph.n_edges


@dataclass(frozen=True)
class QuantizationSpec:
    """Symmetric fixed-point lattice: step 2^-fractional_bits, saturating range."""

    total_bits: int
    fractional_bits: int

    def __post_init__(self):
        if not (1 <= self.total_bits <= 64):
            raise ValueError("total_bits must be in [1, 64]")
        if self.fractional_bits < 0 or self.fractional_bits >= self.total_bits:
            raise ValueError("fractional_bits must be in [0, total_bits)")

    @property
    def step(self) -> float:
        return 2.0 ** (-self.fractional_bits)

    def quantize(self, values):
        """Round to the nearest lattice point (ties to even), saturating."""
        values = np.asarray(values, dtype=np.float64)
        ticks = np.rint(values / self.step)
        limit = float(2 ** (self.total_bits - 1) - 1)
        return np.clip(ticks, -limit, limit) * self.step


# ---------------------------------------------------------------------------
# level plans
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _edge_index(graph: NetGraph) -> dict:
    return {e: i for i, e in enumerate(graph.edges)}


class _LevelPlan:
    """The net's interior vertices in levels, each run as one dense layer:
    level li's pre-activations are a W^T + b for its inputs a (..., fan_in)
    and its W^T (fan_in, width).

    blocks[li] = (w_slice, (fan_in, width), b_slice).  The plan is one of two
    kinds, fixed when it is built:

    - A view plan, when every level reads exactly the previous level's
      outputs (level 0 the inputs) and the constant as a bias, and its W^T
      row-major and its biases are each one run of edge ids, as build_mlp
      numbers them.  w[w_slice] is W^T and w[b_slice] the biases (b_slice
      None for a level without biases), read and written through views.
    - A gather plan, for every other DAG.  Level li reads src[li], a gather
      index into the columns [1, x, level 0's outputs, level 1's, ...] of
      n_cols, so the constant and skip connections are ordinary sources.
      Its W^T is a dense block with structural zeros, holding edge
      edges[li][j] at flat position cells[li][j]; w_slice and b_slice are
      None.  A view plan's src is all None and its edges and cells empty.
    fns[li] is level li's (f, f') from _ACT_TABLE, for the kernels to call.
    """

    __slots__ = ("blocks", "acts", "fns", "src", "edges", "cells", "out_cols", "n_cols")

    def __init__(self, blocks, acts, src=None, edges=(), cells=(), out_cols=(), n_cols=None):
        self.blocks, self.acts = blocks, acts
        self.fns = tuple(_ACT_TABLE[act.kind][:2] for act in acts)
        self.src = (None,) * len(blocks) if src is None else src
        self.edges, self.cells, self.out_cols, self.n_cols = edges, cells, out_cols, n_cols

    def views(self, w, fill=True):
        """Per level W^T (..., fan_in, width) and the biases (..., width) or
        None, of w (..., n_edges): a weight vector, a weight stack or a
        gradient buffer.  On a view plan they are views of w, and writing to
        them writes to w (the reshape only splits the last, unit-stride
        axis); on a gather plan they are dense blocks, filled from w unless
        ``fill`` is false (a gradient buffer, which _write_gradient
        overwrites whole, or weights the caller scatters in later)."""
        lead = w.shape[:-1]
        if self.n_cols is not None:
            views = [(np.zeros(lead + shape), None) for _, shape, _ in self.blocks]
            if fill:
                self.scatter(w, views)
            return views
        return [
            (w[..., ws].reshape(lead + shape), None if bs is None else w[..., bs])
            for ws, shape, bs in self.blocks
        ]

    def scatter(self, w, views):
        """Refill a gather plan's dense blocks from w, after w has changed;
        a view plan's views are w itself."""
        for (wt, _), edges, cells in zip(views, self.edges, self.cells):
            wt.reshape(wt.shape[:-2] + (-1,))[..., cells] = w[..., edges]

    def gather(self, views, grad):
        """Copy a gather plan's dense gradient blocks back to the edges of grad."""
        for (gt, _), edges, cells in zip(views, self.edges, self.cells):
            grad[..., edges] = gt.reshape(gt.shape[:-2] + (-1,))[..., cells]


def _vecmat(a, m, out=None):
    """a m for one input (in,) or a batch (rows, in) against one matrix
    (in, out), or row k of a stack (K, in) against m[k] of a stack (K, in,
    out), written into ``out`` when given.  A stack runs np.matmul on 3-D
    stacks, one BLAS call per slice, so row k equals np.dot(a[k], m[k]) bit
    for bit whatever K is."""
    if m.ndim == 3:
        lift = None if out is None else out[:, None, :]
        return np.matmul(a[:, None, :], m, out=lift)[:, 0, :]
    return np.dot(a, m, out=out)


def _gather(fs, src):
    """Columns src of [1, fs[0], fs[1], ...], joined along the last axis, as
    a C-contiguous array: _vecmat's bits depend on the operand layout."""
    return np.take(np.concatenate([np.ones(fs[0].shape[:-1] + (1,)), *fs], axis=-1), src,
                   axis=-1)


def _forward(plan: _LevelPlan, views, xs, bufs=None):
    """Per level its inputs a and pre-activations z = a W^T + b, and the
    outputs f of the inputs (xs) and of every level, at the weights whose
    plan.views are given: one input or a batch against one net's W^T, or a
    stack of inputs against a stack of nets' (see _vecmat).

    ``bufs`` holds per level the z, f, slope and delta buffers, each of the
    lead shape of xs plus (width,), as NeuralNet._gradient_into and
    _PopulationWorkspace bind them.  With it each level's z and f are
    written into its buffers, the slope buffer serving as the sigmoid's
    scratch; without it they are new arrays."""
    ins, zs, fs = [], [], [xs]
    for li, (src, (wt, b), (act, _)) in enumerate(zip(plan.src, views, plan.fns)):
        z, f, scratch, _ = (None,) * 4 if bufs is None else bufs[li]
        ins.append(fs[-1] if src is None else _gather(fs, src))
        zs.append(_vecmat(ins[-1], wt, z))
        if b is not None:
            zs[-1] += b
        fs.append(act(zs[-1], f, scratch))
    return ins, zs, fs


def _backward(plan: _LevelPlan, views, xs, ys, output_delta, bufs=None):
    """Forward and backward through the levels at the weights whose
    ``views`` (plan.views) are given: over one input (in,) with a scalar
    label or a batch (rows, in) with labels (rows,) at a weight vector; or
    over a stack of inputs (K, in) at a weight stack (K, n_edges), row k at
    the weights of row k.  ``output_delta`` is NeuralNet._output_delta's
    function, and ``bufs`` as in _forward.

    Returns per level the level's inputs a (..., fan_in) and the loss
    derivatives delta (..., width) at its pre-activations, plus the outputs.
    Level li's weight gradient is the outer product a delta^T, in W^T's
    layout, and its bias gradient delta.  On a gather plan each level's
    dL/da is added into the columns it read, and a level's outputs take
    theirs from their columns once every reader is done.
    """
    ins, zs, fs = _forward(plan, views, xs, bufs)
    # .T[0] is the output column of a batch, a float64 scalar for one input
    outputs = fs[-1].T[0]
    d_cols = None if plan.n_cols is None else np.zeros(xs.shape[:-1] + (plan.n_cols,))
    deltas = [None] * len(plan.fns)
    delta = output_delta(outputs, ys, zs[-1].T[0])[..., None]
    for li in range(len(plan.fns) - 1, -1, -1):
        deltas[li] = delta
        if li > 0:
            _, _, slope, d = (None,) * 4 if bufs is None else bufs[li - 1]
            back = _vecmat(delta, views[li][0].swapaxes(-1, -2), d if d_cols is None else None)
            if d_cols is not None:
                d_cols[..., plan.src[li]] += back
                back = d_cols[..., plan.out_cols[li - 1]]
            delta = np.multiply(back, plan.fns[li - 1][1](zs[li - 1], fs[li], slope), out=d)
    return ins, deltas, outputs


def _level_plan(graph: NetGraph, act_of) -> _LevelPlan:
    """Level the graph by depth, the longest path from a source, splitting a
    depth by activation; vertices go in ascending id.  The output, deepest
    of all, is the last level."""
    incoming = {}  # vertex -> {source: edge id}
    for i, (u, v) in enumerate(graph.edges):
        incoming.setdefault(v, {})[u] = i
    depth = dict.fromkeys((graph.constant, *graph.inputs), 0)
    for v in topological_order(graph):
        depth[v] = 1 + max(depth[u] for u in incoming[v])
    by_key = {}
    for v in sorted(incoming, key=lambda v: (depth[v], v)):
        by_key.setdefault((depth[v], act_of(v)), []).append(v)
    levels, acts = list(by_key.values()), [act for _, act in by_key]
    blocks = _view_blocks(graph, incoming, levels)
    if blocks is not None:
        return _LevelPlan(blocks, acts)
    col = {graph.constant: 0, **{v: 1 + i for i, v in enumerate(graph.inputs)}}
    src, edges, cells, out_cols = [], [], [], []
    for level in levels:
        sources = sorted({u for v in level for u in incoming[v]}, key=col.__getitem__)
        row = {u: r for r, u in enumerate(sources)}
        pairs = [(i, row[u] * len(level) + j)
                 for j, v in enumerate(level) for u, i in incoming[v].items()]
        src.append(np.array([col[u] for u in sources], dtype=np.intp))
        edges.append(np.array([i for i, _ in pairs], dtype=np.intp))
        cells.append(np.array([c for _, c in pairs], dtype=np.intp))
        out_cols.append(slice(len(col), len(col) + len(level)))
        col.update(zip(level, range(len(col), len(col) + len(level))))
    blocks = [(None, (len(s), len(level)), None) for s, level in zip(src, levels)]
    return _LevelPlan(blocks, acts, tuple(src), tuple(edges), tuple(cells),
                      tuple(out_cols), len(col))


def _view_blocks(graph, incoming, levels):
    """A view plan's blocks, or None when some level is not a dense layer on
    the previous one with contiguous W^T and biases."""
    prev = list(graph.inputs)
    blocks = []
    for level in levels:
        if any(set(incoming[v]) - {graph.constant} != set(prev) for v in level):
            return None
        # W^T read row-major, and the biases, must each be one run of edge ids
        w_ids = [incoming[v][u] for u in prev for v in level]
        rows_b = [incoming[v].get(graph.constant) for v in level]
        start = w_ids[0] if w_ids else 0
        if w_ids != list(range(start, start + len(w_ids))):
            return None
        if rows_b.count(None) == len(level):
            b_slice = None
        elif None in rows_b or rows_b != list(range(rows_b[0], rows_b[0] + len(level))):
            return None
        else:
            b_slice = slice(rows_b[0], rows_b[0] + len(level))
        blocks.append((slice(start, start + len(w_ids)), (len(prev), len(level)), b_slice))
        prev = level
    return blocks


# ---------------------------------------------------------------------------
# the net
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NeuralNet:
    """Immutable (activation, graph, weights) triple with optional per-vertex overrides.

    ``vertex_activations`` is an extension over the single-nonlinearity model:
    it lets engineered nets mix e.g. cosine gadget units with an identity
    readout.  It is empty for ordinary nets.
    """

    activation: Activation
    graph: NetGraph
    weights: WeightVector
    vertex_activations: tuple = ()

    def __post_init__(self):
        if self.weights.graph is not self.graph and self.weights.graph != self.graph:
            raise InvalidGraph("weight vector belongs to a different graph")
        va = self.vertex_activations
        if isinstance(va, Mapping):
            va = tuple(sorted((int(v), a) for v, a in va.items()))
        object.__setattr__(self, "vertex_activations", tuple(va))
        object.__setattr__(self, "_va_map", dict(self.vertex_activations))
        object.__setattr__(self, "_levels", None)

    # -- structure ----------------------------------------------------------

    @property
    def n_inputs(self) -> int:
        return self.graph.input_size

    @property
    def n_edges(self) -> int:
        return self.graph.n_edges

    def activation_of(self, vertex: int) -> Activation:
        return self._va_map.get(vertex, self.activation)

    def with_weights(self, values) -> "NeuralNet":
        if isinstance(values, WeightVector):
            wv = values
        else:
            wv = WeightVector(self.graph, values)
        net = NeuralNet(self.activation, self.graph, wv, self.vertex_activations)
        # share the level plan; it depends only on graph + acts, so every net
        # derived from this one reuses it instead of re-deriving it
        object.__setattr__(net, "_levels", self._plan())
        return net

    def _plan(self) -> _LevelPlan:
        if self._levels is None:
            object.__setattr__(self, "_levels", _level_plan(self.graph, self.activation_of))
        return self._levels

    # -- forward ------------------------------------------------------------

    def _check_x(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_inputs,):
            raise DimensionMismatch(
                f"input has shape {x.shape}, net expects ({self.n_inputs},)"
            )
        return x

    def evaluate(self, x) -> float:
        """Forward pass."""
        return float(self._outputs(self._check_x(x)))

    def evaluate_batch(self, xs) -> np.ndarray:
        """Forward pass over a (batch, n) input matrix."""
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.n_inputs:
            raise DimensionMismatch(
                f"batch has shape {xs.shape}, net expects (*, {self.n_inputs})"
            )
        return self._outputs(xs)

    def _outputs(self, a):
        """Output of one input (in,) or a batch (rows, in).  A non-finite
        pre-activation raises Diverged: its output would be a saturated or
        NaN value that no accuracy or loss should be read from."""
        plan = self._plan()
        with np.errstate(over="ignore", invalid="ignore"):
            _, zs, fs = _forward(plan, plan.views(self.weights.values), a)
        if not all(np.isfinite(z).all() for z in zs):
            raise Diverged("evaluation met a non-finite pre-activation")
        return fs[-1][..., 0]

    # -- gradients ----------------------------------------------------------

    def _output_delta(self, loss: LossKind):
        """dL/d(pre-activation of the output vertex), elementwise, as a
        function (output, y, z_out) -> delta bound to the output's activation."""
        act = self.activation_of(self.graph.output)
        if loss.kind == "bce" and act.kind == "sigmoid":
            # (p - t): the sigmoid derivative cancels the BCE quotient exactly
            return lambda output, y, z_out: output - (1.0 - y) / 2.0
        d_output, slope = loss.d_output, _ACT_TABLE[act.kind][1]
        return lambda output, y, z_out: d_output(output, y) * slope(z_out, output)

    def gradient_array(self, x, y, loss: LossKind = SQUARED_ERROR):
        """Exact loss gradient, returned as (grad over edges, output value)."""
        gradient = self._gradient_into(self.weights.values, np.empty(self.n_edges), loss)
        return gradient(self._check_x(x), y)

    def _check_batch(self, xs, ys):
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.ndim != 2 or xs.shape[1] != self.n_inputs or ys.shape != (xs.shape[0],):
            raise DimensionMismatch(f"bad batch shapes {xs.shape}, {ys.shape}")
        return xs, ys

    def _gradient_into(self, w, out, loss: LossKind):
        """The gradient of ``loss`` into the buffer ``out``, as a function
        (xs, ys) -> (out, outputs) of checked inputs, for a loop that updates
        the weight buffer w in place.  out.shape[:-1] is the lead shape: ()
        for one input at the weight vector w, (rows,) for a batch at w, (K,)
        for a stack at the weight stack w (K, n_edges), row k at w[k].  The
        views of w and out, the output delta and per level the z, f, slope
        and delta buffers (see _forward) are bound once, here, and every
        call overwrites them.  One input's output is a float; a batch's or a
        stack's is a view of the output level's buffer."""
        plan = self._plan()
        lead = out.shape[:-1]
        w_views, g_views = plan.views(w, fill=False), plan.views(out, fill=False)
        output_delta = self._output_delta(loss)
        bufs = [tuple(np.empty((4,) + lead + (width,))) for _, (_, width), _ in plan.blocks]

        def gradient(xs, ys):
            plan.scatter(w, w_views)
            acts, deltas, outputs = _backward(plan, w_views, xs, ys, output_delta, bufs)
            _write_gradient(acts, deltas, g_views)
            plan.gather(g_views, out)
            return out, outputs if lead else float(outputs)
        return gradient

    def gradient_batch(self, xs, ys, loss: LossKind = SQUARED_ERROR):
        """Per-sample gradients, shape (batch, n_edges), plus outputs (batch,)."""
        xs, ys = self._check_batch(xs, ys)
        out = np.empty((len(ys), self.n_edges))
        return self._gradient_into(self.weights.values, out, loss)(xs, ys)

    def population_gradient(self, xs, ys, probs, loss: LossKind = SQUARED_ERROR,
                            overflow_b: float = math.inf):
        """E_p[Psi_B(dL/dw)] over a weighted batch, plus whether any entry of
        any per-sample gradient exceeded B in absolute value.

        Psi_B clamps each per-sample gradient entry to [-B, B].  No
        per-sample gradient matrix is built for the rows where Psi_B cannot
        fire: a row's gradient in one level is a delta^T (and delta for the
        bias), so those rows reduce to one GEMM per level, a^T (p delta), and
        only the other rows are materialized and clamped, at the level's
        edges (see _PopulationWorkspace).  Rows go in blocks of at most
        _CHUNK_ELEMS per-sample gradient entries.
        """
        gradient = self._population_into(self.weights.values, np.empty(self.n_edges),
                                         xs, ys, probs, loss, overflow_b)
        return gradient()

    def _population_into(self, w, out, xs, ys, probs, loss, overflow_b):
        """The population gradient at the weight buffer w, as a function () ->
        (E_p[Psi_B(dL/dw)], overflow hit) that writes it into the buffer
        ``out``, for a loop that updates w in place.  The population is
        checked and bound to a workspace once, here."""
        xs, ys = self._check_batch(xs, ys)
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != ys.shape:
            raise DimensionMismatch(f"probs has shape {probs.shape}, labels {ys.shape}")
        if not overflow_b > 0:
            raise ValueError("clamp range must be positive")
        workspace = _PopulationWorkspace(self, self._plan(), w, xs, ys, probs, loss, overflow_b)
        return lambda: (out, workspace(out))


_CHUNK_ELEMS = 1 << 22  # cap per-sample gradient blocks at ~32 MB


def _row_blocks(n_rows, n_edges):
    """Slices of at most _CHUNK_ELEMS // n_edges rows (at least one) covering n_rows."""
    rows = max(1, _CHUNK_ELEMS // max(1, n_edges))
    return [slice(lo, lo + rows) for lo in range(0, n_rows, rows)]


def _write_gradient(acts, deltas, grad_views):
    """Write each level's gradient through plan.views of a gradient buffer:
    the outer product a delta^T in W^T's layout, and delta for the biases.
    On a gather plan the views are dense blocks, which plan.gather copies to
    the edges."""
    for a, delta, (g_w, g_b) in zip(acts, deltas, grad_views):
        np.multiply(a[..., :, None], delta[..., None, :], out=g_w)
        if g_b is not None:
            g_b[...] = delta


def _outer_rows(a, delta):
    """Row b is the flattened outer product a_b delta_b^T: (batch, in * out)."""
    n_b, n_i = a.shape
    return np.einsum("bi,bo->bio", a, delta).reshape(n_b, n_i * delta.shape[1])


def clamp_psi(x, b: float):
    """Saturating clamp to [-b, b]: b if x > b, -b if x < -b, x otherwise."""
    if b <= 0:
        raise ValueError("clamp range must be positive")
    if not math.isfinite(b):
        return x
    return np.clip(x, -b, b)


def _clamped_sum(probs, grads, b):
    """probs @ Psi_b(grads), and whether any entry of grads exceeded b."""
    hit = math.isfinite(b) and bool(np.any(np.abs(grads) > b))
    return probs @ clamp_psi(grads, b), hit


class _PopulationWorkspace:
    """E_p[Psi_B(dL/dw)] of a net over one fixed weighted population, at the
    weights of a buffer w that the caller updates in place: the buffers of
    every step of a run, bound once.

    Each call runs the shared _backward over each block of rows, into per
    level z, f and delta buffers allocated here for the largest block (the
    slope buffer of every level is the head of one scratch; see _forward),
    then per level the clamp test and one GEMM, a^T (p delta), over the rows
    the clamp cannot hit.  Only the few rows it may hit are materialized
    anew, and on a gather plan only at the level's edges (plan.cells), so
    Psi_B and the overflow flag never see a structural zero.  The products
    keep the row-major operands of the plain batch code, a (rows, in) and
    delta (rows, out), since OpenBLAS's bits depend on the operand layout.
    The clamp test takes its per-row maxima over a feature-major (width,
    rows) copy, along contiguous memory.

    A level with biases takes its gradient from its input [a, 1], a buffer
    whose column of ones is written once.  Level 0's per-row max|.| (and
    the population's [x, 1]) is loaded once when the population is one
    block.  A gather plan's dense gradient blocks go to the edges through
    plan.gather.
    """

    def __init__(self, net, plan, w, xs, ys, probs, loss, overflow_b):
        self.plan, self.w, self.overflow_b = plan, w, overflow_b
        self.output_delta = net._output_delta(loss)
        self.xs, self.ys, self.probs = xs, ys, probs
        self.views = plan.views(w)
        self.blocks = _row_blocks(xs.shape[0], net.n_edges)
        rows = min(xs.shape[0], self.blocks[0].stop)
        fans = [shape for _, shape, _ in plan.blocks]
        self.a1 = [None if b_slice is None else np.ones((rows, fan_in + 1))
                   for _, (fan_in, _), b_slice in plan.blocks]
        self.g = [np.empty((fan_in + (a1 is not None), fan_out))
                  for (fan_in, fan_out), a1 in zip(fans, self.a1)]
        self.cells = plan.cells or (slice(None),) * len(fans)
        self.part = np.empty(net.n_edges)
        self.part_views = plan.views(self.part, fill=False)
        width = 1 + max(max(shape) for shape in fans)
        self.scratch = np.empty(rows * width)
        self.gather = np.empty(rows * width)
        self.row_max = np.empty((3, rows))
        self.within = np.empty(rows, dtype=bool)
        self.loaded = None
        # per block, per level its z, f, slope and delta buffers (see _forward)
        zfd = [np.empty((3, rows, fan_out)) for _, fan_out in fans]
        self.bufs = [[(z[:m], f[:m], self._scratch(m, z.shape[1]), d[:m]) for z, f, d in zfd]
                     for m in (min(b.stop, xs.shape[0]) - b.start for b in self.blocks)]

    def __call__(self, out):
        """Write E_p[Psi_B(dL/dw)] into ``out``; return whether any per-sample
        gradient entry exceeded B."""
        self.plan.scatter(self.w, self.views)
        out[...] = 0.0
        overflow_hit = False
        for block, bufs in zip(self.blocks, self.bufs):
            hit = self._block(block, bufs)
            out += self.part
            overflow_hit = overflow_hit or hit
        return overflow_hit

    def _scratch(self, *shape, buffer=None):
        """A C-contiguous array of this shape at the head of the scratch (or
        of ``buffer``)."""
        flat = self.scratch if buffer is None else buffer
        return flat[:math.prod(shape)].reshape(shape)

    def _row_max_abs(self, a, out):
        """max_j |a_ij| per row i, taken along the rows of a feature-major copy."""
        t = self._scratch(a.shape[1], a.shape[0])
        np.copyto(t, a.T)
        np.abs(t, out=t)
        return np.max(t, axis=0, out=out[:a.shape[0]], initial=0.0)

    def _load(self, block, a):
        """Level 0's gradient input, a or [a, 1], for the block's rows and,
        when B is finite, its per-row max|.| in row_max[2]: the population
        never changes, so a population of one block loads once."""
        a1 = a if self.a1[0] is None else self.a1[0][:a.shape[0]]
        if self.loaded != block.start:
            if a1 is not a:
                a1[:, :-1] = a
            if math.isfinite(self.overflow_b):
                self._row_max_abs(a1, self.row_max[2])
            self.loaded = block.start
        return a1

    def _block(self, block, bufs):
        xs = self.xs[block]
        m = xs.shape[0]
        ins, deltas, _ = _backward(self.plan, self.views, xs, self.ys[block],
                                   self.output_delta, bufs)
        probs = self.probs[block]
        overflow_hit = False
        for li, (a, a1, delta, g, cells, (g_w, g_b)) in enumerate(
            zip(ins, self.a1, deltas, self.g, self.cells, self.part_views)
        ):
            if li == 0:
                a = self._load(block, a)
                a_max = self.row_max[2][:m]
            elif a1 is None:
                a_max = None
            else:
                a1 = a1[:m]
                a1[:, :-1] = a
                a = a1
                # [sigmoid(z), 1] has max|.| 1, or NaN where z is, and then
                # that row's delta is NaN too
                a_max = 1.0 if self.plan.acts[li - 1].kind == "sigmoid" else None
            within = self._rows_within(a, delta, a_max)
            if within is None:
                a_in = a
                pd = np.multiply(probs[:, None], delta, out=self._scratch(*delta.shape))
            else:
                rows = np.flatnonzero(within)
                a_in = np.take(a, rows, axis=0, mode="clip",
                               out=self._scratch(rows.size, a.shape[1], buffer=self.gather))
                pd = np.take(delta, rows, axis=0, mode="clip",
                             out=self._scratch(rows.size, delta.shape[1]))
                np.multiply(probs[rows, None], pd, out=pd)
            np.matmul(a_in.T, pd, out=g)
            if within is not None:
                rows = np.flatnonzero(~within)
                s, hit = _clamped_sum(probs[rows],
                                      _outer_rows(a[rows], delta[rows])[:, cells],
                                      self.overflow_b)
                g.reshape(-1)[cells] += s
                overflow_hit = overflow_hit or hit
            g_w[...] = g[:g_w.shape[0]]
            if g_b is not None:
                g_b[...] = g[-1]
        self.plan.gather(self.part_views, self.part)
        return overflow_hit

    def _rows_within(self, a, delta, a_max=None):
        """Mask of the rows whose outer product delta_i a_i^T has no entry
        beyond B, or None when that holds for every row.

        A row is within B when max|delta_i| * max|a_i| <= B: float rounding is
        monotone, so no product delta_j a_k of that row exceeds B.  NaN fails
        the test.  ``a_max`` is max|a_i| per row (or of every row) when
        already known.
        """
        if not math.isfinite(self.overflow_b):
            return None
        bound = self._row_max_abs(delta, self.row_max[0])
        if a_max is None:
            a_max = self._row_max_abs(a, self.row_max[1])
        np.multiply(bound, a_max, out=bound)
        within = np.less_equal(bound, self.overflow_b, out=self.within[:bound.size])
        return None if within.all() else within


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

INITS = ("zeros", "he_uniform", "gaussian_fan_in")  # build_mlp's weight inits


def build_mlp(
    n: int,
    hidden: Sequence[int],
    activation: Activation = SIGMOID,
    out_activation: Optional[Activation] = None,
    init: str = "zeros",
    rng: Optional[np.random.Generator] = None,
) -> NeuralNet:
    """Fully-connected layered net with bias edges from the constant vertex.

    init, one of INITS: 'zeros', 'he_uniform' (U(+-sqrt(6/fan_in)), biases
    0), or 'gaussian_fan_in' (N(0, 1/fan_in), biases 0).
    """
    if init not in INITS:
        raise ValueError(f"unknown init {init!r}: must be one of {list(INITS)}")
    if init != "zeros" and rng is None:
        raise ValueError("random init requires an rng")
    if n < 0 or min(hidden, default=1) < 1:
        raise ValueError(f"need n >= 0 and hidden widths >= 1, got {n}, {list(hidden)}")
    widths = [n] + list(hidden) + [1]
    constant = 0
    inputs = tuple(range(1, n + 1))
    next_id = n + 1
    layers = [list(inputs)]
    for width in widths[1:]:
        layers.append(list(range(next_id, next_id + width)))
        next_id += width
    output = layers[-1][0]
    edges = []
    weights = []
    for li in range(1, len(layers)):
        fan_in = len(layers[li - 1])
        for v in layers[li]:
            if init == "he_uniform":
                bound = math.sqrt(6.0 / fan_in)
                row = rng.uniform(-bound, bound, size=fan_in)
            elif init == "gaussian_fan_in":
                row = rng.normal(0.0, math.sqrt(1.0 / fan_in), size=fan_in)
            else:
                row = np.zeros(fan_in)
            for u, wv in zip(layers[li - 1], row):
                edges.append((u, v))
                weights.append(float(wv))
            edges.append((constant, v))  # bias
            weights.append(0.0)
    graph = NetGraph(
        vertex_count=next_id,
        input_size=n,
        edges=tuple(edges),
        constant=constant,
        inputs=inputs,
        output=output,
    )
    wv = WeightVector.from_dict(graph, dict(zip(edges, weights)))
    va = {}
    if out_activation is not None and out_activation != activation:
        va[output] = out_activation
    return NeuralNet(activation, graph, wv, tuple(sorted(va.items())))


def monomial_subsets(n: int, k: int):
    """Size-k subsets of [0, n) in the fixed unit order (lexicographic)."""
    return [frozenset(c) for c in itertools.combinations(range(n), k)]


def build_monomial_net(n: int, k: int, max_units: int = 20000) -> NeuralNet:
    """One cosine parity gadget per size-k subset plus a zero linear readout.

    Gadget unit for subset s computes cos(pi*k/2 - (pi/2) * sum_{i in s} x_i),
    which equals prod_{i in s} x_i exactly on {+1,-1}^n.  The readout vertex
    is an identity unit; setting its edge from unit s to 1 (all others 0)
    makes the net compute that monomial exactly.
    """
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= n")
    n_units = math.comb(n, k)
    if n_units > max_units:
        raise BudgetExceeded(f"C({n},{k}) = {n_units} exceeds budget {max_units}")
    constant = 0
    inputs = tuple(range(1, n + 1))
    units = list(range(n + 1, n + 1 + n_units))
    output = n + 1 + n_units
    edges = {}
    for unit, subset in zip(units, monomial_subsets(n, k)):
        edges[(constant, unit)] = math.pi * k / 2.0
        for i in sorted(subset):
            edges[(1 + i, unit)] = -math.pi / 2.0
        edges[(unit, output)] = 0.0
    edges[(constant, output)] = 0.0
    graph = NetGraph(
        vertex_count=output + 1,
        input_size=n,
        edges=tuple(edges),
        constant=constant,
        inputs=inputs,
        output=output,
    )
    wv = WeightVector.from_dict(graph, edges)
    return NeuralNet(COSINE, graph, wv, ((output, IDENTITY),))


def monomial_readout_edges(net: NeuralNet):
    """(subset, edge) pairs for the readout of a build_monomial_net product."""
    n = net.n_inputs
    units = [v for v in net.graph.interior_vertices() if v != net.graph.output]
    k = sum(1 for (u, v) in net.graph.edges if v == units[0] and u != net.graph.constant)
    return list(zip(monomial_subsets(n, k), [(u, net.graph.output) for u in units]))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def net_to_json(net: NeuralNet, quantization: Optional[QuantizationSpec] = None) -> str:
    """Serialize a net to the interchange JSON document.

    With a quantization spec, weights are emitted as decimal strings of the
    exact fixed-point values.
    """
    def enc(w):
        if quantization is None:
            return w
        return str(Decimal(float(quantization.quantize(w))))

    doc = {
        "activation": net.activation.kind,
        "n": net.n_inputs,
        "vertices": net.graph.vertex_count,
        "edges": [
            {"from": u, "to": v, "weight": enc(w)}
            for (u, v), w in zip(net.graph.edges, net.weights.values)
        ],
        "special": {
            "constant": net.graph.constant,
            "inputs": list(net.graph.inputs),
            "output": net.graph.output,
        },
    }
    if quantization is not None:
        doc["quantization"] = {
            "total_bits": quantization.total_bits,
            "fractional_bits": quantization.fractional_bits,
        }
    if net.vertex_activations:
        doc["vertex_activations"] = {
            str(v): a.kind for v, a in net.vertex_activations
        }
    return json.dumps(doc, indent=2, sort_keys=True)


def net_from_json(text: str) -> NeuralNet:
    doc = json.loads(text)
    edges = [(e["from"], e["to"]) for e in doc["edges"]]
    weights = {(e["from"], e["to"]): float(e["weight"]) for e in doc["edges"]}
    graph = NetGraph(
        vertex_count=doc["vertices"],
        input_size=doc["n"],
        edges=tuple(edges),
        constant=doc["special"]["constant"],
        inputs=tuple(doc["special"]["inputs"]),
        output=doc["special"]["output"],
    )
    va = tuple(
        sorted(
            (int(v), ACTIVATIONS[name])
            for v, name in doc.get("vertex_activations", {}).items()
        )
    )
    return NeuralNet(
        ACTIVATIONS[doc["activation"]],
        graph,
        WeightVector.from_dict(graph, weights),
        va,
    )
