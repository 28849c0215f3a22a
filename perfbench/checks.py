"""Output checks made apart from the program.

Every reference value here is computed by the benchmark itself (plain Python
or plain numpy), never read back from the program or from a stored copy of
an earlier output.  Each check returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------


def bound_gd(gamma, b, steps, m, n, sigma2) -> float:
    """min(1, 1/2 + gamma*B*T*sqrt(m * 2^-n / (2*pi*sigma^2)))."""
    return min(1.0, 0.5 + gamma * b * steps * math.sqrt(m * 2.0 ** (-n) / (2 * math.pi * sigma2)))


def mlp_edges(n, widths) -> int:
    """Edges of a fully connected n-widths-1 net with a bias into every unit."""
    sizes = [n] + list(widths) + [1]
    return sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))


def constant_mixture_pred(p_const, n) -> float:
    """Pred of the constant mixture: both draws constant with prob (2p)^2,
    otherwise at least one uniform function, whose correlation is 2^-n."""
    both = (2.0 * p_const) ** 2
    return both + (1.0 - both) * 2.0 ** (-n)


def _log_binom_pmf(k, n, p):
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binom_upper_tail(k, n, p) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed in plain Python."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    return math.fsum(math.exp(_log_binom_pmf(j, n, p)) for j in range(k, n + 1))


def _bisect(fn, target, increasing):
    """p in [0, 1] where the monotone fn crosses target."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (fn(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16:
            break
    return 0.5 * (lo + hi)


def clopper_pearson(successes, total, alpha=0.05):
    """Exact binomial interval by bisection on the binomial tails."""
    if successes == 0:
        lo = 0.0
    else:
        lo = _bisect(lambda p: binom_upper_tail(successes, total, p), alpha / 2, True)
    if successes == total:
        hi = 1.0
    else:
        # P(X <= k) = 1 - P(X >= k + 1) falls as p grows
        hi = _bisect(lambda p: 1.0 - binom_upper_tail(successes + 1, total, p),
                     alpha / 2, False)
    return lo, hi


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def csv_digest(text: str) -> list:
    """The last line is '# sha256=' and the SHA-256 of every byte before it."""
    body, sep, last = text.rstrip("\n").rpartition("\n")
    if not sep or not last.startswith("# sha256="):
        return ["CSV has no digest line"]
    want = last[len("# sha256="):]
    got = hashlib.sha256((body + "\n").encode()).hexdigest()
    return [] if got == want else [f"CSV digest {want[:12]}... does not match {got[:12]}..."]


def csv_rows(text: str) -> list:
    """Data rows of a digest-stamped CSV, as dicts keyed by the header."""
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# per-workload output checks
# ---------------------------------------------------------------------------


def planted_parity_degrees(lab_seed: int, count: int, n: int) -> list:
    """Degrees of the parities `lab bounds` plants: parity i is the mask
    drawn uniformly from [0, 2^n) by numpy's default_rng(lab_seed * 100003 + i)."""
    return [bin(int(np.random.default_rng(lab_seed * 100003 + i).integers(0, 2 ** n))).count("1")
            for i in range(count)]


# Per-parity accuracy window of the final noisy-GD nets, and the lowest
# parity degree it applies to.  The final nets are random functions of the
# inputs, so their correlation with a parity of low degree can be large:
# against all 4096 parities, the final nets of 30 workload seeds reached
# |accuracy - 1/2| of 0.47 (degree 0), 0.31 (1), 0.105 (2) and 0.087 (3),
# but at most 0.043 on the 113,910 net-parity pairs from degree 4 up.
# Degrees 0 to 3 are 7.3% of the uniform draws.
ACCURACY_WINDOW = 0.05
WINDOW_MIN_DEGREE = 4


def check_noisy_gd(doc: dict, params: dict, degrees: list) -> list:
    e = params["empirical"]
    fails = []
    accs = doc["accuracies"]
    if len(accs) != e["n_parities"]:
        fails.append(f"{len(accs)} accuracies for {e['n_parities']} parities")
    grid = 2.0 ** e["n"]
    for a, degree in zip(accs, degrees):
        if not (0.0 <= a <= 1.0 and a * grid == round(a * grid)):
            fails.append(f"accuracy {a!r} is not a multiple of 2^-{e['n']} in [0, 1]")
        # Criterion 8's window [0.48, 0.52] is for the mean over 50
        # parities; one parity is checked against the wider window above.
        if degree >= WINDOW_MIN_DEGREE and abs(a - 0.5) > ACCURACY_WINDOW:
            fails.append(f"accuracy {a!r} on a degree-{degree} parity is outside "
                         f"[{0.5 - ACCURACY_WINDOW}, {0.5 + ACCURACY_WINDOW}]")
    mean = math.fsum(accs) / max(1, len(accs))
    if abs(doc["mean_accuracy"] - mean) > 1e-12:
        fails.append(f"mean_accuracy {doc['mean_accuracy']} is not the mean {mean}")
    edges = mlp_edges(e["n"], e["widths"])
    if doc["edges"] != edges:
        fails.append(f"edges {doc['edges']} != {edges}")
    bound = bound_gd(e["gamma"], e["overflow_b"], e["steps"], edges, e["n"], e["sigma2"])
    if abs(doc["bound"] - bound) > 1e-12 * bound:
        fails.append(f"bound {doc['bound']} != {bound}")
    return fails


def check_grid_sgd(csv_texts: dict, params: dict, seeds) -> list:
    fails = []
    for name, text in csv_texts.items():
        fails += [f"{name}: {m}" for m in csv_digest(text)]
    train, test = [], []
    for seed in seeds:
        rows = csv_rows(csv_texts[f"gridparity_seed{seed}.csv"])
        if [int(r["epoch"]) for r in rows] != list(range(1, params["epochs"] + 1)):
            fails.append(f"seed {seed}: epochs are not 1..{params['epochs']}")
        train.append(float(rows[-1]["train_err"]))
        test.append(float(rows[-1]["test_err"]))
    summary = csv_rows(csv_texts["gridparity_summary.csv"])
    if [int(r["seed"]) for r in summary] != list(seeds):
        fails.append("summary seeds differ from the seeds run")
    # Criterion 5 bounds the means over 10 seeds: train error <= 0.05, test
    # error in [0.45, 0.55].  One seed does not meet them every time: 2 of 23
    # seeds ended at train error 0.069, and chance alone puts the test error
    # of 1000 images outside the window 0.16% of the time.  So the benchmark
    # checks what holds on every seed: the net memorised its training set
    # (train error at most half of chance) and did not generalise (test error
    # within 6 binomial standard deviations of chance).
    mean_train = sum(train) / len(train)
    mean_test = sum(test) / len(test)
    if mean_train > 0.25:
        fails.append(f"mean final train error {mean_train} > 0.25: the net did not memorise")
    floor = 0.5 - 6.0 * math.sqrt(0.25 / (params["test_count"] * len(seeds)))
    if mean_test < floor:
        fails.append(f"mean final test error {mean_test} < {floor:.3f}: the net generalised")
    return fails


def check_sla_distinguish(doc: dict, params: dict) -> list:
    fails = []
    total = 2 * params["trials"]
    successes = round(doc["accuracy"] * total)
    if abs(successes / total - doc["accuracy"]) > 1e-12:
        fails.append(f"accuracy {doc['accuracy']} is not a multiple of 1/{total}")
    lo, hi = clopper_pearson(successes, total)
    if abs(doc["ci_low"] - lo) > 1e-9 or abs(doc["ci_high"] - hi) > 1e-9:
        fails.append(f"CI [{doc['ci_low']}, {doc['ci_high']}] != Clopper-Pearson [{lo}, {hi}]")
    if not (doc["ci_low"] <= 0.55 and doc["ci_high"] >= 0.45):
        fails.append(f"CI [{doc['ci_low']}, {doc['ci_high']}] misses [0.45, 0.55]")
    return fails


def check_xpred_mc(doc: dict, params: dict) -> list:
    d = params["distribution"]
    fails = []
    if doc["method"] != "monte_carlo" or doc["trials"] != params["outer_pairs"]:
        fails.append(f"method {doc['method']} with {doc['trials']} trials")
    value, ci95 = doc["value"], doc["ci95"]
    if not 0.0 <= value <= 1.0:
        fails.append(f"estimate {value} outside [0, 1]")
    exact = constant_mixture_pred(d["p_const"], d["n"])
    if not abs(value - exact) <= 3.0 * ci95:
        fails.append(f"estimate {value} is more than 3*ci95 ({ci95}) from {exact}")
    return fails


# ---------------------------------------------------------------------------
# program checks: public functions against plain-numpy references
# ---------------------------------------------------------------------------


def mlp1_arrays(net):
    """(W1, b1, W2, b2) of a one-hidden-layer build_mlp net, and the edge
    positions of each entry, read from the edge list."""
    g = net.graph
    col = {v: i for i, v in enumerate(g.inputs)}
    hidden = sorted({v for u, v in g.edges if v != g.output})
    row = {v: i for i, v in enumerate(hidden)}
    w = net.weights.values
    h, n = len(hidden), len(g.inputs)
    W1, b1, W2, b2 = np.zeros((h, n)), np.zeros(h), np.zeros(h), np.zeros(1)
    pos = {"W1": np.zeros((h, n), dtype=int), "b1": np.zeros(h, dtype=int),
           "W2": np.zeros(h, dtype=int), "b2": np.zeros(1, dtype=int)}
    for i, (u, v) in enumerate(g.edges):
        if v == g.output:
            if u == g.constant:
                b2[0], pos["b2"][0] = w[i], i
            else:
                W2[row[u]], pos["W2"][row[u]] = w[i], i
        elif u == g.constant:
            b1[row[v]], pos["b1"][row[v]] = w[i], i
        else:
            W1[row[v], col[u]], pos["W1"][row[v], col[u]] = w[i], i
    return (W1, b1, W2, b2), pos


def population_step_reference(net, xs, ys, probs, gamma, overflow_b):
    """-gamma * E[Psi_B(dL/dw)] for squared loss on a sigmoid n-h-1 net,
    per-sample gradients written out by hand and summed in extended precision."""
    (W1, b1, W2, b2), pos = mlp1_arrays(net)
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731
    hid = sig(xs @ W1.T + b1)
    out = sig(hid @ W2 + b2[0])
    d_out = 2.0 * (out - ys) * out * (1.0 - out)
    d_hid = d_out[:, None] * W2[None, :] * hid * (1.0 - hid)
    per_sample = np.zeros((xs.shape[0], net.n_edges))
    per_sample[:, pos["W1"].ravel()] = (d_hid[:, :, None] * xs[:, None, :]).reshape(len(xs), -1)
    per_sample[:, pos["b1"]] = d_hid
    per_sample[:, pos["W2"]] = d_out[:, None] * hid
    per_sample[:, pos["b2"]] = d_out[:, None]
    clamped = np.clip(per_sample, -overflow_b, overflow_b).astype(np.longdouble)
    expected = (np.asarray(probs, dtype=np.longdouble)[:, None] * clamped).sum(axis=0)
    return -gamma * expected


def relative_error(got, want) -> float:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(np.asarray(got, dtype=np.longdouble) - want))) / scale

