"""Shared test helpers: random DAG nets, a per-vertex reference for the net
kernels, and an independent girth verifier."""

import numpy as np

from paritylab import netcore as nc


def make_random_dag_net(rng, n_inputs=4, n_interior=6, activation=nc.SIGMOID,
                        max_in=4, weight_scale=1.5):
    """Random acyclic net: interior vertices draw in-edges from earlier vertices,
    and anything that cannot reach the output gets wired to it."""
    constant = 0
    inputs = tuple(range(1, n_inputs + 1))
    interior = list(range(n_inputs + 1, n_inputs + 1 + n_interior))
    output = interior[-1]
    edges = set()
    for v in interior:
        pool = [u for u in range(v) ]
        k = int(rng.integers(1, min(max_in, len(pool)) + 1))
        for u in rng.choice(pool, size=k, replace=False):
            edges.add((int(u), v))
    # ensure every vertex reaches the output
    for v in [constant, *inputs, *interior[:-1]]:
        reachable = {v}
        frontier = [v]
        while frontier:
            u = frontier.pop()
            for (a, b) in edges:
                if a == u and b not in reachable:
                    reachable.add(b)
                    frontier.append(b)
        if output not in reachable:
            edges.add((v, output))
    graph = nc.NetGraph(
        vertex_count=output + 1,
        input_size=n_inputs,
        edges=tuple(edges),
        constant=constant,
        inputs=inputs,
        output=output,
    )
    weights = rng.uniform(-weight_scale, weight_scale, size=graph.n_edges)
    return nc.NeuralNet(activation, graph, nc.WeightVector(graph, weights))


def _incoming(graph):
    """Per interior vertex its (source, edge id) pairs, ascending by source."""
    incoming = {}
    for i, (u, v) in enumerate(graph.edges):
        incoming.setdefault(v, []).append((u, i))
    return {v: sorted(pairs) for v, pairs in incoming.items()}


def reference_forward(net, x, order=None):
    """Per-vertex sweep in a topological order (the graph's own by default):
    every vertex's value and pre-activation for one input.  Each in-sum
    adds its terms in ascending source id, so any valid order gives the same
    bits."""
    graph = net.graph
    order = nc.topological_order(graph) if order is None else order
    incoming = _incoming(graph)
    w = net.weights.values
    values = np.zeros(graph.vertex_count)
    pre = np.zeros(graph.vertex_count)
    values[graph.constant] = 1.0
    values[list(graph.inputs)] = x
    for v in order:
        z = 0.0
        for u, i in incoming[v]:
            z += w[i] * values[u]
        pre[v] = z
        values[v] = float(net.activation_of(v)(z))
    return values, pre


def reference_gradient(net, x, y, loss):
    """(loss gradient over the edges, output) of one sample, by reverse mode
    over the vertices in reverse topological order."""
    graph = net.graph
    values, pre = reference_forward(net, x)
    output = values[graph.output]
    out_act = net.activation_of(graph.output)
    d_values = np.zeros(graph.vertex_count)
    if loss.kind == "bce" and out_act.kind == "sigmoid":
        d_out = output - (1.0 - y) / 2.0
    else:
        d_out = float(loss.d_output(output, y) * out_act.derivative(pre[graph.output], output))
    incoming = _incoming(graph)
    w = net.weights.values
    grad = np.zeros(net.n_edges)
    for v in reversed(nc.topological_order(graph)):
        if v == graph.output:
            delta = d_out
        else:
            delta = d_values[v] * float(net.activation_of(v).derivative(pre[v], values[v]))
        for u, i in incoming[v]:
            grad[i] = delta * values[u]
            d_values[u] += delta * w[i]
    return grad, output


def finite_difference_gradient(net, x, y, loss, h=1e-5):
    """Central finite differences on every edge weight."""
    w0 = net.weights.values
    out = np.zeros(net.n_edges)
    for i in range(net.n_edges):
        wp = w0.copy()
        wp[i] += h
        wm = w0.copy()
        wm[i] -= h
        lp = float(loss.value(net.with_weights(wp).evaluate(x), y))
        lm = float(loss.value(net.with_weights(wm).evaluate(x), y))
        out[i] = (lp - lm) / (2.0 * h)
    return out


def gradient_scaled_error(analytic, numeric):
    """Max deviation relative to the gradient's own scale."""
    scale = max(float(np.max(np.abs(numeric))), 1e-12)
    return float(np.max(np.abs(analytic - numeric))) / scale


def brute_force_girth(graph):
    """Independent oracle: shortest cycle by BFS from every vertex, written
    against the adjacency only."""
    adj = {v: set() for v in range(graph.n)}
    for u, v in graph.edges:
        adj[u].add(v)
        adj[v].add(u)
    best = float("inf")
    for root in range(graph.n):
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
    return best
