"""Config-driven experiment runner.

    lab <command> --config path.json [--seed N] [--out dir]

Commands: xpred, train, distinguish, gridparity, phase, bounds, gen-aer.
Every run writes a manifest before results and, however it ends, records
its status, exit code and error there; result files contain no
timestamps, so re-running a manifest's config and seed reproduces them
byte for byte.  Exit codes: 0 success, 2 schema error, 3 budget refusal.
CSV outputs carry a header row and a trailing sha256 digest line.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import crosspred, descent, funcdist, netcore, sla


class SchemaError(Exception):
    """Config fails validation (unknown key, wrong type, bad value)."""


EXIT_SCHEMA = 2
EXIT_BUDGET = 3


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

_REQUIRED = object()
_FLOAT_MAX = sys.float_info.max  # an upper bound that refuses inf

# Each section's keys as (type, default[, low[, high]]), the bounds inclusive.
# A tuple type is the set of names the key may take.  A list type [t] checks
# each element as a t.
KEY_TABLES = {
    "config": {
        "experiment": (str, _REQUIRED),
        "seed": (int, 0, 0),
        "parameters": (dict, {}),
        "output_dir": (str, "lab_out"),
    },
    "distribution": {
        "kind": (str, _REQUIRED),
        "n": (int, _REQUIRED),
    },
    "net": {
        "widths": ([int], _REQUIRED, 1),
        "activation": (tuple(netcore.ACTIVATIONS), "sigmoid"),
        "out_activation": (("", *netcore.ACTIVATIONS), ""),  # "": the hidden activation
        "init": (netcore.INITS, "he_uniform"),
    },
    "descent": {
        "gamma": (float, _REQUIRED),
        "steps": (int, _REQUIRED),
        "overflow_b": (float, math.inf),
        "weight_clamp_b": (float, math.inf),
        "noise_kind": (tuple(descent.NOISE_KINDS), "none"),
        "noise_variance": (float, 0.0),
        "noise_halfwidth": (float, 0.0),
        "init_perturb_variance": (float, 0.0),
        "quantization_bits": ([int], []),
        "coord_budget": (int, 0),
        "coord_rule": (descent.COORD_RULES, "topk"),
    },
    "xpred": {
        "distribution": (dict, _REQUIRED),
        "method": (("auto", "exact", "closed_form", "monte_carlo"), "auto"),
        "outer_pairs": (int, 20000, 2),
        "inner_x": (int, 512, 2),
    },
    "train": {
        "n": (int, _REQUIRED, 1),
        "function_mask": (int, _REQUIRED),
        "net": (dict, _REQUIRED),
        "descent": (dict, _REQUIRED),
        "algorithm": (("sgd", "cd", "gd"), "sgd"),
        "loss": (tuple(netcore.LOSSES), "squared"),
    },
    "distinguish": {
        "distribution": (dict, _REQUIRED),
        "steps": (int, _REQUIRED),
        "trials": (int, _REQUIRED),
        "statistic": (sla.STATISTICS, "prediction_count"),
        "machine": (("sgd_sla", "constant", "gf2_solver"), "sgd_sla"),
        "net": (dict, {}),
        "descent": (dict, {}),
        "cap_constant": (float, 1.0),
    },
    "gridparity": {
        "grid_k": (int, 13, 1),
        "widths": ([int], [128, 128, 128], 1),
        "epochs": (int, 80, 1),
        "train_count": (int, 1000, 1),
        "test_count": (int, 1000, 1),
        "gamma": (float, 0.1, 0.0, _FLOAT_MAX),
        "loss": (tuple(netcore.LOSSES), "squared"),
        "n_seeds": (int, 1, 1),
    },
    "phase": {
        "n": (int, _REQUIRED, 1),
        "k_values": ([int], _REQUIRED, 1),
        "train_steps": (int, 4000, 0),
        "gamma": (float, 0.05, 0.0),
        "eval_trials": (int, 4000, 0),
        "mlp_widths": ([int], [64, 64], 1),
        "max_units": (int, funcdist.MAX_ENUM_FUNCTIONS),  # one unit per enumerated monomial
        "methods": ([("engineered", "generic_mlp")], ["engineered", "generic_mlp"]),
    },
    "bounds": {
        "gd_grid": ([dict], []),
        "sgd_grid": ([dict], []),
        "empirical": (dict, {}),
    },
    "bounds.gd_grid[]": {
        "gamma": (float, _REQUIRED),
        "overflow_b": (float, _REQUIRED),
        "steps": (int, _REQUIRED),
        "m": (int, _REQUIRED),
        "n": (int, _REQUIRED),
        "sigma2": (float, _REQUIRED),
    },
    "bounds.sgd_grid[]": {
        "gamma": (float, _REQUIRED),
        "overflow_b": (float, _REQUIRED),
        "steps": (int, _REQUIRED),
        "m": (int, _REQUIRED),
        "n": (int, _REQUIRED),
        "p": (float, 0.0),
        "c_const": (float, 1.0),
    },
    "bounds.empirical": {
        "n": (int, _REQUIRED, 1, funcdist.MAX_EXHAUSTIVE_N),  # accuracy is exhaustive
        "widths": ([int], [16], 1),
        "gamma": (float, 0.01),
        "overflow_b": (float, 1.0),
        "steps": (int, 500),
        "sigma2": (float, _REQUIRED),
        "n_parities": (int, 50, 1),
    },
    "gen-aer": {
        "n": (int, _REQUIRED),
        "m": (float, _REQUIRED),
        "r": (int, _REQUIRED),
        "count": (int, 1, 1),
    },
}


def _check_keys(section: dict, where: str, extra: Optional[dict] = None) -> dict:
    """Check ``section`` against KEY_TABLES[where] plus ``extra``: reject
    unknown keys, apply defaults, coerce types and refuse values out of
    bounds."""
    table = {**KEY_TABLES[where], **(extra or {})}
    unknown = set(section) - set(table)
    if unknown:
        raise SchemaError(f"unknown key(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, (typ, default, *bounds) in table.items():
        name = f"{where}.{key}"
        if key not in section:
            if default is _REQUIRED:
                raise SchemaError(f"missing required key {name}")
            out[key] = default
        elif isinstance(typ, list):
            values = _checked(section[key], list, name)
            out[key] = [_checked(v, typ[0], f"{name}[{i}]", *bounds)
                        for i, v in enumerate(values)]
        else:
            out[key] = _checked(section[key], typ, name, *bounds)
    return out


def _checked(value, typ, name: str, low=None, high=None):
    """``value`` as a ``typ`` (an int widens to a float), within the
    inclusive bounds low and high where they are given; a tuple ``typ`` is
    the set of names ``value`` may be."""
    if isinstance(typ, tuple):
        if not (isinstance(value, str) and value in typ):
            raise SchemaError(f"bad value in {name}: must be one of {list(typ)}, got {value!r}")
        return value
    if isinstance(value, bool) and typ is not bool:
        raise SchemaError(f"{name} must be {typ}, got bool")
    if isinstance(value, int):
        try:  # JSON ints are unbounded, and the commands compute with them as floats
            float(value)
        except OverflowError:
            raise SchemaError(f"bad value in {name}: must fit a float, got an int of "
                              f"{value.bit_length()} bits") from None
        if typ is float:
            value = float(value)
    if not isinstance(value, typ):
        raise SchemaError(f"{name} must be {typ}, got {type(value).__name__}")
    if low is not None and not (low <= value and (high is None or value <= high)):  # NaN too
        rule = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise SchemaError(f"bad value in {name}: must be {rule}, got {value}")
    return value


@contextmanager
def _values_checked(where: str):
    """Report a ValueError raised while building ``where`` as a SchemaError."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(f"bad value in {where}: {exc}") from exc


# distribution kind -> (class, its keys after kind and n, passed in this order)
DISTRIBUTIONS = {
    "parity_uniform": (funcdist.ParityUniform, {}),
    "monomial_k": (funcdist.MonomialK, {"k": (int, _REQUIRED)}),
    "uniform_all": (funcdist.UniformAll, {}),
    "constant_mixture": (funcdist.ConstantMixture, {"p_const": (float, _REQUIRED)}),
}


def _dist_from_config(section: dict) -> funcdist.FunctionDistribution:
    kind = section.get("kind")
    if not (isinstance(kind, str) and kind in DISTRIBUTIONS):
        raise SchemaError(f"unknown distribution kind {kind!r}")
    cls, extra = DISTRIBUTIONS[kind]
    spec = _check_keys(section, "distribution", extra)
    with _values_checked("distribution"):
        return cls(spec["n"], *(spec[key] for key in extra))


def _write_csv(path: Path, header, rows):
    """CSV with a trailing '# sha256=<digest of all preceding bytes>' line."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    body = buf.getvalue()
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(body + f"# sha256={digest}\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class RunContext:
    """Output directory plus the manifest lifecycle."""

    def __init__(self, experiment: str, config_bytes: bytes, config: dict,
                 seed: int, out_dir: Path):
        self.experiment = experiment
        self.config = config
        self.seed = seed
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest = {
            "experiment": experiment,
            "config_digest": hashlib.sha256(config_bytes).hexdigest(),
            "code_version": __version__,
            "seed": seed,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "finished": None,
            "status": "running",
            "exit_code": None,
            "error": None,
            "design_flags": {
                "bit_convention": "b -> 1 - 2b",
                "aer_cycle_sampler": "uniform edge on a short cycle, uniform shortest cycle through it",
                "tv_bias": "fixed-width histogram; coarse bins underestimate",
                "bound_constants": "big-O constants are explicit inputs, default 1",
            },
        }
        self._write_manifest()

    def _write_manifest(self):
        _write_json(self.out_dir / "manifest.json", self.manifest)

    def finish(self, exit_code: Optional[int], error: Optional[str] = None):
        """Record how the run ended: status 'ok' (exit 0), 'invalid' (exit 2),
        'refused' (exit 3), or 'crashed' (exit code None: an unexpected
        exception, which propagates)."""
        self.manifest["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.manifest["status"] = _STATUS.get(exit_code, "crashed")
        self.manifest["exit_code"] = exit_code
        self.manifest["error"] = error
        self._write_manifest()


_STATUS = {0: "ok", EXIT_SCHEMA: "invalid", EXIT_BUDGET: "refused"}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_xpred(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(config, "xpred")
    dist = _dist_from_config(spec["distribution"])
    inputs = funcdist.UniformInputs(dist.n)
    method = spec["method"]
    estimate = None
    if method in ("auto", "closed_form"):
        estimate = crosspred.pred_closed_form(dist, inputs)
        if estimate is None and method == "closed_form":
            raise SchemaError("no closed form available for this distribution")
    if estimate is None and method in ("auto", "exact"):
        try:
            estimate = crosspred.pred_exact(inputs, dist)
        except funcdist.TooLarge:
            if method == "exact":
                raise
    if estimate is None:
        estimate = crosspred.pred_monte_carlo(
            dist, inputs, spec["outer_pairs"], spec["inner_x"], seed=ctx.seed
        )
    digest = hashlib.sha256(
        json.dumps(dist.describe(), sort_keys=True).encode()
    ).hexdigest()[:16]
    _write_json(ctx.out_dir / "xpred.json", estimate.to_json(inputs_digest=digest))
    return 0


def _net_from_config(section: dict, n: int, seed: int) -> netcore.NeuralNet:
    spec = _check_keys(section, "net")
    with _values_checked("net"):
        return netcore.build_mlp(
            n,
            spec["widths"],
            netcore.ACTIVATIONS[spec["activation"]],
            out_activation=netcore.ACTIVATIONS.get(spec["out_activation"]),  # "": None
            init=spec["init"],
            rng=np.random.default_rng(seed) if spec["init"] != "zeros" else None,
        )


def _descent_config(section: dict, seed: int) -> descent.DescentConfig:
    spec = _check_keys(section, "descent")
    with _values_checked("descent"):
        noise = descent.NoiseSpec(
            spec["noise_kind"],
            variance=spec["noise_variance"],
            halfwidth=spec["noise_halfwidth"],
        )
        quant = None
        if spec["quantization_bits"]:
            total, frac = spec["quantization_bits"]  # any other length: ValueError
            quant = netcore.QuantizationSpec(total, frac)
        return descent.DescentConfig(
            gamma=spec["gamma"],
            steps=spec["steps"],
            overflow_b=spec["overflow_b"],
            weight_clamp_b=spec["weight_clamp_b"],
            noise=noise,
            init_perturb_variance=spec["init_perturb_variance"],
            quantization=quant,
            coord_budget=spec["coord_budget"] or None,
            coord_rule=spec["coord_rule"],
            seed=seed,
        )


def cmd_train(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(config, "train")
    loss = netcore.LOSSES[spec["loss"]]
    n = spec["n"]
    with _values_checked("train"):
        f = funcdist.ParitySubset(n, spec["function_mask"])
    net = _net_from_config(spec["net"], n, seed=ctx.seed)
    config_d = _descent_config(spec["descent"], seed=ctx.seed)
    if spec["algorithm"] == "cd" and config_d.coord_budget is None:
        raise SchemaError("algorithm 'cd' needs descent.coord_budget >= 1")
    if spec["algorithm"] != "cd" and config_d.coord_budget is not None:
        raise SchemaError(f"algorithm {spec['algorithm']!r} updates every edge: "
                          "descent.coord_budget must be 0")
    if spec["algorithm"] == "gd":
        population = descent.Population.uniform_grid(n, f.evaluate_batch)
        final, log = descent.gd_run(net, population, loss, config_d, record_steps=False)
    else:
        source = funcdist.SampleSource.planted(
            f, funcdist.UniformInputs(n), seed=ctx.seed + 1
        )
        runner = descent.cd_run if spec["algorithm"] == "cd" else descent.sgd_run
        final, log = runner(net, source, loss, config_d, record_steps=False)
    trials = 0 if n <= funcdist.MAX_EXHAUSTIVE_N else 20000  # 0: exhaustive
    accuracy = sla.accuracy_eval(final, f, trials=trials, seed=ctx.seed + 2, loss=loss)
    (ctx.out_dir / "net.json").write_text(
        netcore.net_to_json(final, quantization=config_d.quantization)
    )
    _write_json(
        ctx.out_dir / "train.json",
        {
            "algorithm": spec["algorithm"],
            "accuracy": accuracy,
            "acc_bit_rate": float(np.mean(log.acc_bits)) if log.acc_bits else None,
        },
    )
    return 0


def cmd_distinguish(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(config, "distinguish")
    dist = _dist_from_config(spec["distribution"])
    n = dist.n
    if spec["machine"] == "sgd_sla":
        base_net = _net_from_config(spec["net"], n, seed=ctx.seed)

        def machine(trial_seed: int) -> sla.SlaStateMachine:
            return sla.sgd_as_sla(base_net, netcore.SQUARED_ERROR,
                                  dataclasses.replace(cfg, seed=trial_seed))

        with _values_checked("descent"):  # an unbounded alphabet fails here, before any trace
            cfg = _descent_config(spec["descent"], seed=ctx.seed)
            machine(ctx.seed)
        if cfg.steps != spec["steps"]:
            raise SchemaError(f"bad value in distinguish.descent.steps: the traces run "
                              f"distinguish.steps = {spec['steps']}, got {cfg.steps}")
    elif spec["net"] or spec["descent"]:
        raise SchemaError(f"machine {spec['machine']!r} trains no net: "
                          "distinguish.net and distinguish.descent must be empty")
    else:
        machine = sla.constant_sla() if spec["machine"] == "constant" else sla.gf2_solver_sla(n)
    if crosspred.pred_closed_form(dist, funcdist.UniformInputs(n)) is None:
        raise SchemaError(
            "the cap needs a closed-form cross-predictability: distribution.kind must be "
            f"parity_uniform, monomial_k or uniform_all, got {spec['distribution']['kind']!r}"
        )
    with _values_checked("distinguish"):
        sla.distinguish_cap(dist, spec["steps"], spec["trials"], spec["statistic"],
                            spec["cap_constant"])
    report = sla.distinguish_experiment(
        machine,
        dist,
        steps=spec["steps"],
        trials=spec["trials"],
        statistic=spec["statistic"],
        seed=ctx.seed,
        cap_constant=spec["cap_constant"],
    )
    _write_json(ctx.out_dir / "distinguish.json", report.to_json())
    return 0


def _pytorch_uniform_net(n: int, widths, seed: int,
                         activation: netcore.Activation = netcore.RELU) -> netcore.NeuralNet:
    """MLP with a sigmoid head and fan-in-rescaled uniform init, the
    convention of the replicated experiment: every weight and bias into a
    unit is U(+-1/sqrt(fan_in)), drawn in edge order."""
    net = netcore.build_mlp(n, [int(w) for w in widths], activation,
                            out_activation=netcore.SIGMOID, init="zeros")
    edges = np.array(net.graph.edges)
    fan = np.bincount(edges[edges[:, 0] != net.graph.constant, 1])
    bounds = 1.0 / np.sqrt(fan[edges[:, 1]])
    return net.with_weights(np.random.default_rng(seed).uniform(-bounds, bounds))


def run_gridparity(grid_k, widths, epochs, train_count, test_count,
                   gamma, loss: netcore.LossKind, seeds):
    """Grid-parity replications trained as one stack: per seed, per-epoch
    (epoch, train_loss, train_err, test_err) rows.  Each seed has its own
    datasets, net and epoch order, and its row trains as that seed alone
    would.  Pixels are fed raw as 0/1 floats, and the prediction is the
    sigmoid output thresholded at 1/2, compared as a bit.  Diverged names the
    first seed whose weights are not finite after an epoch."""
    def datasets(count, offset):  # stacked (K, count, n) bit images and (K, count) labels
        spec = funcdist.GridDatasetSpec
        sets = [funcdist.grid_dataset(spec(grid_k, count, seed * 7919 + offset)) for seed in seeds]
        return np.stack([imgs for imgs, _ in sets]), np.stack([labels for _, labels in sets])
    train_imgs, train_labels = datasets(train_count, 1)
    test_imgs, test_labels = datasets(test_count, 2)
    # squared loss fits the label bits, BCE the +-1 labels
    y_train = (funcdist.bits_to_pm(train_labels) if loss.kind == "bce"
               else train_labels.astype(np.float64))
    initial = []
    for seed in seeds:  # only the weights are kept; every row shares the last net's graph
        net = _pytorch_uniform_net(grid_k * grid_k, widths, seed=seed * 7919 + 3)
        initial.append(net.weights.values)
    w = np.stack(initial)
    orders = [np.random.default_rng(seed * 7919 + 4) for seed in seeds]
    cfg = descent.DescentConfig(gamma=gamma, steps=train_count)
    rows = [[] for _ in seeds]
    blocks = _epoch_blocks(train_imgs, y_train, orders, epochs)
    epoch_steps = descent._sample_descent(net, w, blocks, loss, cfg,
                                          [seed * 7919 + 5 for seed in seeds])
    for epoch, _ in enumerate(epoch_steps, start=1):
        diverged = np.nonzero(~np.isfinite(w).all(axis=1))[0]
        if diverged.size:
            raise descent.Diverged(f"gridparity seed {seeds[diverged[0]]}: non-finite "
                                   f"weights after epoch {epoch}")
        for k in range(len(seeds)):
            trained = net.with_weights(w[k])
            train_out = trained.evaluate_batch(train_imgs[k].astype(np.float64))
            test_out = trained.evaluate_batch(test_imgs[k].astype(np.float64))
            rows[k].append((epoch, float(np.mean(loss.value(train_out, y_train[k]))),
                            float(np.mean((train_out >= 0.5) != (train_labels[k] == 1))),
                            float(np.mean((test_out >= 0.5) != (test_labels[k] == 1)))))
    return rows


def _epoch_blocks(imgs, ys, orders, epochs):
    """One sample block per epoch for a stack of K datasets, images imgs
    (K, N, n) and labels ys (K, N): row k is dataset k in the order of a
    fresh orders[k].permutation, as float inputs (N, K, n) and labels (N, K)."""
    at = np.arange(len(ys))
    for _ in range(epochs):
        order = np.stack([rng.permutation(ys.shape[1]) for rng in orders], axis=1)
        yield imgs[at, order].astype(np.float64), ys[at, order]


def cmd_gridparity(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(config, "gridparity")
    loss = netcore.LOSSES[spec["loss"]]
    seeds = [ctx.seed + i for i in range(spec["n_seeds"])]
    # every seed runs before any file is written, so a seed that diverges leaves none
    results = run_gridparity(spec["grid_k"], spec["widths"], spec["epochs"],
                             spec["train_count"], spec["test_count"], spec["gamma"], loss, seeds)
    for seed, rows in zip(seeds, results):
        _write_csv(ctx.out_dir / f"gridparity_seed{seed}.csv",
                   ("epoch", "train_loss", "train_err", "test_err"), rows)
    _write_csv(ctx.out_dir / "gridparity_summary.csv",
               ("seed", "final_train_loss", "final_train_err", "final_test_err"),
               [(seed, *rows[-1][1:]) for seed, rows in zip(seeds, results)])
    return 0


def cmd_phase(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(config, "phase")
    if not (spec["k_values"] and spec["methods"]):
        raise SchemaError("phase.k_values and phase.methods must each be non-empty")
    n = spec["n"]
    if max(spec["k_values"]) > n:
        raise SchemaError(f"bad value in phase.k_values: each must be <= n = {n}, "
                          f"got {spec['k_values']}")
    # evaluation is exhaustive up to MAX_EXHAUSTIVE_N inputs and sampled beyond
    if n > funcdist.MAX_EXHAUSTIVE_N and spec["eval_trials"] < 1:
        raise SchemaError(f"bad value in phase.eval_trials: must be >= 1 when "
                          f"n > {funcdist.MAX_EXHAUSTIVE_N}, got {spec['eval_trials']}")
    rows = [_phase_row(n, k, method, spec, ctx.seed) for k in spec["k_values"]
            for method in ("engineered", "generic_mlp") if method in spec["methods"]]
    _write_csv(
        ctx.out_dir / "phase.csv",
        ("k", "method", "accuracy", "ci95"),
        rows,
    )
    return 0


def _phase_row(n, k, method, spec, seed):
    """One phase.csv row: SGD from the method's net on a planted degree-k
    monomial, then the trained net's accuracy, exact for n <= MAX_EXHAUSTIVE_N
    and sampled with a binomial CI beyond.  The engineered net trains only its
    readout under squared loss; the generic MLP trains every edge under BCE."""
    f = funcdist.MonomialK(n, k).draw(np.random.default_rng(seed + k))
    if method == "engineered":
        if math.comb(n, k) > spec["max_units"]:
            raise funcdist.TooLarge(f"C({n},{k}) beyond the engineered-net budget")
        net = netcore.build_monomial_net(n, k, max_units=spec["max_units"])
        trainable = [net.graph.edge_index()[e] for _, e in netcore.monomial_readout_edges(net)]
        # LMS stability on +-1 features needs lr < 2 / n_units
        gamma, loss = min(spec["gamma"], 0.5 / math.comb(n, k)), netcore.SQUARED_ERROR
        source_seed, eval_seed = seed + 17 * k, seed + 3
    else:
        net = _pytorch_uniform_net(n, spec["mlp_widths"], seed=seed + 29 * k)
        trainable, gamma, loss = None, spec["gamma"], netcore.LOGISTIC_BCE
        source_seed, eval_seed = seed + 31 * k, seed + 5
    cfg = descent.DescentConfig(gamma=gamma, steps=spec["train_steps"], seed=seed + k)
    source = funcdist.SampleSource.planted(f, funcdist.UniformInputs(n), seed=source_seed)
    trained, _ = descent.sgd_run(net, source, loss, cfg, record_steps=False,
                                 trainable=trainable)
    if n <= funcdist.MAX_EXHAUSTIVE_N:
        return (k, method, sla.accuracy_eval(trained, f, loss=loss), 0.0)
    trials = spec["eval_trials"]
    acc = sla.accuracy_eval(trained, f, trials=trials, seed=eval_seed, loss=loss)
    # binomial CI halfwidth at p ~ 1/2, the worst case
    return (k, method, acc, 1.96 * math.sqrt(0.25 / trials))


def cmd_bounds(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(config, "bounds")
    rows = []
    for entry in spec["gd_grid"]:
        e = _check_keys(entry, "bounds.gd_grid[]")
        with _values_checked("bounds.gd_grid[]"):
            bound = sla.bound_gd(e["gamma"], e["overflow_b"], e["steps"], e["m"], e["n"],
                                 e["sigma2"])
        rows.append(
            ("gd", e["gamma"], e["overflow_b"], e["steps"], e["m"], e["n"], e["sigma2"], bound)
        )
    for entry in spec["sgd_grid"]:
        e = _check_keys(entry, "bounds.sgd_grid[]")
        with _values_checked("bounds.sgd_grid[]"):
            bound = sla.bound_sgd(e["steps"], e["m"], e["overflow_b"], e["gamma"], e["n"],
                                  e["p"], e["c_const"])
        rows.append(("sgd", e["gamma"], e["overflow_b"], e["steps"], e["m"], e["n"], e["p"],
                     bound))
    # the empirical block is checked and run before any file is written
    result = _bounds_empirical(spec["empirical"], ctx.seed) if spec["empirical"] else None
    _write_csv(
        ctx.out_dir / "bounds.csv",
        ("family", "gamma", "overflow_b", "steps", "m", "n", "extra", "bound"),
        rows,
    )
    if result is not None:
        _write_json(ctx.out_dir / "bounds_empirical.json", result)
    return 0


def _bounds_empirical(section: dict, seed: int) -> dict:
    e = _check_keys(section, "bounds.empirical")
    # the cap is taken before the runs, so arguments it refuses exit 2 up front
    with _values_checked("bounds.empirical"):
        net_edges = netcore.build_mlp(e["n"], e["widths"], netcore.SIGMOID).n_edges
        bound = sla.bound_gd(e["gamma"], e["overflow_b"], e["steps"], net_edges, e["n"],
                             e["sigma2"])
    accs = noisy_gd_parity_accuracies(
        n=e["n"], widths=e["widths"], gamma=e["gamma"], overflow_b=e["overflow_b"],
        steps=e["steps"], sigma2=e["sigma2"], n_parities=e["n_parities"], seed=seed,
    )
    return {
        "mean_accuracy": float(np.mean(accs)),
        "accuracies": [float(a) for a in accs],
        "bound": bound,
        "edges": net_edges,
    }


def noisy_gd_parity_accuracies(n, widths, gamma, overflow_b, steps, sigma2,
                               n_parities, seed):
    """Train bounded-noisy population GD against planted parities; return the
    per-parity exhaustive accuracies of the final nets."""
    dist = funcdist.ParityUniform(n)
    accs = []
    for i in range(n_parities):
        f = dist.draw(np.random.default_rng(seed * 100003 + i))
        net = _pytorch_uniform_net(n, widths, seed * 100003 + 7 * i + 1,
                                   activation=netcore.SIGMOID)
        population = descent.Population.uniform_grid(n, f.evaluate_batch)
        cfg = descent.DescentConfig(
            gamma=gamma, steps=steps, overflow_b=overflow_b,
            noise=descent.NoiseSpec.gaussian(sigma2), seed=seed * 100003 + 7 * i + 2,
        )
        final, _ = descent.gd_run(net, population, netcore.SQUARED_ERROR, cfg,
                                  record_steps=False)
        accs.append(sla.accuracy_eval(final, f))
    return accs


def cmd_gen_aer(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(config, "gen-aer")
    rows = []
    for i in range(spec["count"]):
        with _values_checked("gen-aer"):
            graph = funcdist.aer_sample(spec["n"], spec["m"], spec["r"], seed=ctx.seed + i)
        name = f"graph_{i:03d}.txt"
        funcdist.write_graph(ctx.out_dir / name, graph)
        g = funcdist.girth(graph)
        rows.append(
            (name, spec["n"], spec["m"], spec["r"], len(graph.edges),
             "inf" if math.isinf(g) else int(g),
             int(g >= spec["r"]), int(funcdist.connectivity_label(graph)))
        )
    _write_csv(
        ctx.out_dir / "aer_index.csv",
        ("file", "n", "m", "r", "edges", "girth", "girth_ok", "connected"),
        rows,
    )
    if any(row[6] == 0 for row in rows):
        raise AssertionError("generated graph failed its own girth verification")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "xpred": cmd_xpred,
    "train": cmd_train,
    "distinguish": cmd_distinguish,
    "gridparity": cmd_gridparity,
    "phase": cmd_phase,
    "bounds": cmd_bounds,
    "gen-aer": cmd_gen_aer,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab", description="descent-algorithm laboratory runner"
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="override output directory")
    args = parser.parse_args(argv)

    config_path = Path(args.config)
    try:
        config_bytes = config_path.read_bytes()
        full = json.loads(config_bytes)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    ctx = None
    try:
        if not isinstance(full, dict):
            raise SchemaError("config must be a JSON object")
        top = _check_keys(full, "config")
        if top["experiment"] != args.command:
            raise SchemaError(
                f"config is for experiment {top['experiment']!r}, not {args.command!r}"
            )
        seed = top["seed"]
        if args.seed is not None:  # the flag is held to the config key's bounds
            seed = _checked(args.seed, int, "--seed", *KEY_TABLES["config"]["seed"][2:])
        out_dir = Path(args.out) if args.out else Path(top["output_dir"])
        ctx = RunContext(args.command, config_bytes, top, seed, out_dir)
        code, error = COMMANDS[args.command](top["parameters"], ctx), None
    except SchemaError as exc:
        code, error = EXIT_SCHEMA, f"schema error: {exc}"
    except descent.Diverged as exc:
        code, error = EXIT_SCHEMA, f"diverged: {exc}"
    except (netcore.BudgetExceeded, funcdist.TooLarge) as exc:
        code, error = EXIT_BUDGET, f"budget refusal: {exc}"
    except Exception as exc:
        if ctx is not None:
            ctx.finish(None, f"{type(exc).__name__}: {exc}")
        raise
    if error is not None:
        print(error, file=sys.stderr)
    if ctx is None:
        # a top-level key failed; the manifest still goes to a known output
        # directory
        out = args.out or (full.get("output_dir") if isinstance(full, dict) else None)
        if isinstance(out, str):
            ctx = RunContext(args.command, config_bytes, full, args.seed, Path(out))
    if ctx is not None:
        ctx.finish(code, error)
    return code


if __name__ == "__main__":
    sys.exit(main())
