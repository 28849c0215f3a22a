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
import hashlib
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
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

def _check_keys(section: dict, allowed: dict, where: str) -> dict:
    """Reject unknown keys, apply defaults, coerce types."""
    unknown = set(section) - set(allowed)
    if unknown:
        raise SchemaError(f"unknown key(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, (typ, default) in allowed.items():
        if key in section:
            value = section[key]
            if isinstance(value, bool) and typ is not bool:
                raise SchemaError(f"{where}.{key} must be {typ}, got bool")
            if typ is float and isinstance(value, int):
                value = float(value)
            if not isinstance(value, typ):
                raise SchemaError(f"{where}.{key} must be {typ}, got {type(value).__name__}")
            out[key] = value
        elif default is _REQUIRED:
            raise SchemaError(f"missing required key {where}.{key}")
        else:
            out[key] = default
    return out


_REQUIRED = object()


def _int_list(values: list, where: str, low=None, high=None) -> list:
    """A list-valued key whose elements must each be an int (not a bool),
    within [low, high] where those are given."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{where} elements must be int, got {type(value).__name__}")
        if low is not None and value < low:
            raise SchemaError(f"{where} elements must be >= {low}, got {value}")
        if high is not None and value > high:
            raise SchemaError(f"{where} elements must be <= {high}, got {value}")
    return values


def _at_least_one(value: int, where: str):
    if value < 1:
        raise SchemaError(f"{where} must be >= 1, got {value}")


@contextmanager
def _values_checked(where: str):
    """Report a ValueError raised while building ``where`` as a SchemaError."""
    try:
        yield
    except ValueError as exc:
        raise SchemaError(f"bad value in {where}: {exc}") from exc


def _dist_from_config(section: dict) -> funcdist.FunctionDistribution:
    with _values_checked("distribution"):
        return _build_dist(section)


def _build_dist(section: dict) -> funcdist.FunctionDistribution:
    kind = section.get("kind")
    if kind == "parity_uniform":
        spec = _check_keys(section, {"kind": (str, _REQUIRED), "n": (int, _REQUIRED)}, "distribution")
        return funcdist.ParityUniform(spec["n"])
    if kind == "monomial_k":
        spec = _check_keys(
            section,
            {"kind": (str, _REQUIRED), "n": (int, _REQUIRED), "k": (int, _REQUIRED)},
            "distribution",
        )
        return funcdist.MonomialK(spec["n"], spec["k"])
    if kind == "uniform_all":
        spec = _check_keys(section, {"kind": (str, _REQUIRED), "n": (int, _REQUIRED)}, "distribution")
        return funcdist.UniformAll(spec["n"])
    if kind == "constant_mixture":
        spec = _check_keys(
            section,
            {"kind": (str, _REQUIRED), "n": (int, _REQUIRED), "p_const": (float, _REQUIRED)},
            "distribution",
        )
        return funcdist.ConstantMixture(spec["n"], spec["p_const"])
    raise SchemaError(f"unknown distribution kind {kind!r}")


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


def _threads() -> int:
    value = os.environ.get("LAB_THREADS", "")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def _seed_sweep(worker, seeds):
    """Run worker(seed) for each seed, merged in ascending-seed order."""
    seeds = sorted(seeds)
    n_workers = min(_threads(), len(seeds))
    if n_workers <= 1:
        return [worker(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, seeds))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_xpred(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(
        config,
        {
            "distribution": (dict, _REQUIRED),
            "method": (str, "auto"),
            "outer_pairs": (int, 20000),
            "inner_x": (int, 512),
        },
        "xpred",
    )
    dist = _dist_from_config(spec["distribution"])
    inputs = funcdist.UniformInputs(dist.n)
    method = spec["method"]
    if method not in ("auto", "exact", "closed_form", "monte_carlo"):
        raise SchemaError(f"unknown xpred method {method!r}")
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
    spec = _check_keys(
        section,
        {
            "widths": (list, _REQUIRED),
            "activation": (str, "sigmoid"),
            "out_activation": (str, ""),
            "init": (str, "he_uniform"),
        },
        "net",
    )
    act = netcore.ACTIVATIONS.get(spec["activation"])
    if act is None:
        raise SchemaError(f"unknown activation {spec['activation']!r}")
    out_act = None
    if spec["out_activation"]:
        out_act = netcore.ACTIVATIONS.get(spec["out_activation"])
        if out_act is None:
            raise SchemaError(f"unknown activation {spec['out_activation']!r}")
    with _values_checked("net"):
        return netcore.build_mlp(
            n,
            _int_list(spec["widths"], "net.widths"),
            act,
            out_activation=out_act,
            init=spec["init"],
            rng=np.random.default_rng(seed) if spec["init"] != "zeros" else None,
        )


def _descent_config(section: dict, seed: int) -> descent.DescentConfig:
    spec = _check_keys(
        section,
        {
            "gamma": (float, _REQUIRED),
            "steps": (int, _REQUIRED),
            "overflow_b": (float, math.inf),
            "weight_clamp_b": (float, math.inf),
            "noise_kind": (str, "none"),
            "noise_variance": (float, 0.0),
            "noise_halfwidth": (float, 0.0),
            "init_perturb_variance": (float, 0.0),
            "quantization_bits": (list, []),
            "coord_budget": (int, 0),
            "coord_rule": (str, "topk"),
        },
        "descent",
    )
    with _values_checked("descent"):
        noise = descent.NoiseSpec(
            spec["noise_kind"],
            variance=spec["noise_variance"],
            halfwidth=spec["noise_halfwidth"],
        )
        quant = None
        if spec["quantization_bits"]:
            total, frac = _int_list(spec["quantization_bits"], "descent.quantization_bits")
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
    spec = _check_keys(
        config,
        {
            "n": (int, _REQUIRED),
            "function_mask": (int, _REQUIRED),
            "net": (dict, _REQUIRED),
            "descent": (dict, _REQUIRED),
            "algorithm": (str, "sgd"),
            "loss": (str, "squared"),
        },
        "train",
    )
    if spec["algorithm"] not in ("sgd", "cd", "gd"):
        raise SchemaError(f"unknown algorithm {spec['algorithm']!r}")
    if spec["loss"] not in netcore.LOSSES:
        raise SchemaError(f"unknown loss {spec['loss']!r}")
    loss = netcore.LOSSES[spec["loss"]]
    n = spec["n"]
    with _values_checked("train"):
        f = funcdist.ParitySubset(n, spec["function_mask"])
    net = _net_from_config(spec["net"], n, seed=ctx.seed)
    config_d = _descent_config(spec["descent"], seed=ctx.seed)
    if spec["algorithm"] == "gd":
        population = descent.Population.uniform_grid(n, f.evaluate_batch)
        final, log = descent.gd_run(net, population, loss, config_d, record_steps=False)
    else:
        source = funcdist.SampleSource.planted(
            f, funcdist.UniformInputs(n), seed=ctx.seed + 1
        )
        runner = descent.cd_run if spec["algorithm"] == "cd" else descent.sgd_run
        final, log = runner(net, source, loss, config_d, record_steps=False)
    accuracy = sla.accuracy_eval(final, f, loss=loss) if n <= 12 else sla.accuracy_eval(
        final, f, trials=20000, seed=ctx.seed + 2, loss=loss
    )
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
    spec = _check_keys(
        config,
        {
            "distribution": (dict, _REQUIRED),
            "steps": (int, _REQUIRED),
            "trials": (int, _REQUIRED),
            "statistic": (str, "prediction_count"),
            "machine": (str, "sgd_sla"),
            "net": (dict, {}),
            "descent": (dict, {}),
            "cap_constant": (float, 1.0),
        },
        "distinguish",
    )
    dist = _dist_from_config(spec["distribution"])
    n = dist.n
    if spec["machine"] == "constant":
        machine = sla.constant_sla()
    elif spec["machine"] == "gf2_solver":
        machine = sla.gf2_solver_sla(n)
    elif spec["machine"] == "sgd_sla":
        if not spec["net"] or not spec["descent"]:
            raise SchemaError("sgd_sla machine needs net and descent sections")
        base_net = _net_from_config(spec["net"], n, seed=ctx.seed)
        descent_section = dict(spec["descent"])

        def machine(trial_seed: int) -> sla.SlaStateMachine:
            cfg = _descent_config(descent_section, seed=trial_seed)
            return sla.sgd_as_sla(base_net, netcore.SQUARED_ERROR, cfg)

    else:
        raise SchemaError(f"unknown machine {spec['machine']!r}")
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
    rng = np.random.default_rng(seed)
    w = net.weights.values.copy()
    fan = {}
    for u, v in net.graph.edges:
        if u != net.graph.constant:
            fan[v] = fan.get(v, 0) + 1
    for i, (u, v) in enumerate(net.graph.edges):
        bound = 1.0 / math.sqrt(fan[v])
        w[i] = rng.uniform(-bound, bound)
    return net.with_weights(w)


def run_gridparity_seed(grid_k, widths, epochs, train_count, test_count,
                        gamma, loss: netcore.LossKind, seed: int):
    """One grid-parity replication: per-epoch (train_loss, train_err, test_err).

    Pixels are fed raw as 0/1 floats.  BCE trains against +-1 labels through
    the canonical bit map; squared loss trains the sigmoid head directly
    against the label bits (the standard MSE classifier).  Either way the
    prediction is the output thresholded at 1/2, compared as a bit.
    """
    train_imgs, train_labels = funcdist.grid_dataset(
        funcdist.GridDatasetSpec(grid_k, train_count, seed=seed * 7919 + 1)
    )
    test_imgs, test_labels = funcdist.grid_dataset(
        funcdist.GridDatasetSpec(grid_k, test_count, seed=seed * 7919 + 2)
    )
    x_train = train_imgs.astype(np.float64)
    x_test = test_imgs.astype(np.float64)
    if loss.kind == "bce":
        y_train = funcdist.bits_to_pm(train_labels)
    else:
        y_train = train_labels.astype(np.float64)
    n = grid_k * grid_k
    net = _pytorch_uniform_net(n, widths, seed=seed * 7919 + 3)
    source = _EpochPairSource(x_train, y_train, seed=seed * 7919 + 4)
    cfg = descent.DescentConfig(gamma=gamma, steps=train_count, seed=seed * 7919 + 5)
    rows = []
    for epoch in range(1, epochs + 1):
        net, _ = descent.sgd_run(net, source, loss, cfg, record_steps=False)
        train_out = net.evaluate_batch(x_train)
        test_out = net.evaluate_batch(x_test)
        train_loss = float(np.mean(loss.value(train_out, y_train)))
        train_err = float(np.mean((train_out >= 0.5) != (train_labels == 1)))
        test_err = float(np.mean((test_out >= 0.5) != (test_labels == 1)))
        rows.append((epoch, train_loss, train_err, test_err))
    return rows


class _EpochPairSource:
    """Pre-set training pairs, reshuffled each pass; duck-types SampleSource."""

    def __init__(self, xs, ys, seed):
        self.xs = xs
        self.ys = ys
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._order = None
        self._cursor = 0

    def with_seed(self, seed):
        return _EpochPairSource(self.xs, self.ys, seed)

    def next_sample(self):
        if self._order is None or self._cursor >= len(self.ys):
            self._order = self._rng.permutation(len(self.ys))
            self._cursor = 0
        i = self._order[self._cursor]
        self._cursor += 1
        return self.xs[i], float(self.ys[i])


def cmd_gridparity(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(
        config,
        {
            "grid_k": (int, 13),
            "widths": (list, [128, 128, 128]),
            "epochs": (int, 80),
            "train_count": (int, 1000),
            "test_count": (int, 1000),
            "gamma": (float, 0.1),
            "loss": (str, "squared"),
            "n_seeds": (int, 1),
        },
        "gridparity",
    )
    if spec["loss"] not in netcore.LOSSES:
        raise SchemaError(f"unknown loss {spec['loss']!r}")
    loss = netcore.LOSSES[spec["loss"]]
    _int_list(spec["widths"], "gridparity.widths", low=1)
    _at_least_one(spec["n_seeds"], "gridparity.n_seeds")
    seeds = [ctx.seed + i for i in range(spec["n_seeds"])]

    def worker(seed):
        return seed, run_gridparity_seed(
            spec["grid_k"], spec["widths"], spec["epochs"], spec["train_count"],
            spec["test_count"], spec["gamma"], loss, seed,
        )

    results = _seed_sweep(worker, seeds)
    summary = []
    for seed, rows in results:
        _write_csv(
            ctx.out_dir / f"gridparity_seed{seed}.csv",
            ("epoch", "train_loss", "train_err", "test_err"),
            rows,
        )
        summary.append((seed, rows[-1][1], rows[-1][2], rows[-1][3]))
    _write_csv(
        ctx.out_dir / "gridparity_summary.csv",
        ("seed", "final_train_loss", "final_train_err", "final_test_err"),
        summary,
    )
    return 0


def cmd_phase(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(
        config,
        {
            "n": (int, _REQUIRED),
            "k_values": (list, _REQUIRED),
            "train_steps": (int, 4000),
            "gamma": (float, 0.05),
            "eval_trials": (int, 4000),
            "mlp_widths": (list, [64, 64]),
            "max_units": (int, 4096),
            "methods": (list, ["engineered", "generic_mlp"]),
        },
        "phase",
    )
    if any(m not in ("engineered", "generic_mlp") for m in spec["methods"]):
        raise SchemaError(f"unknown phase methods in {spec['methods']}")
    n = spec["n"]
    _int_list(spec["mlp_widths"], "phase.mlp_widths", low=1)
    _int_list(spec["k_values"], "phase.k_values", low=1, high=n)
    rows = []
    for k in spec["k_values"]:
        if "engineered" in spec["methods"]:
            rows.append(_phase_engineered(n, k, spec, ctx.seed))
        if "generic_mlp" in spec["methods"]:
            rows.append(_phase_generic(n, k, spec, ctx.seed))
    _write_csv(
        ctx.out_dir / "phase.csv",
        ("k", "method", "accuracy", "ci95"),
        rows,
    )
    return 0


def _phase_accuracy_ci(trials: int) -> float:
    # binomial CI halfwidth at p ~ 1/2, the worst case
    return 1.96 * math.sqrt(0.25 / trials)


def _phase_engineered(n, k, spec, seed):
    if math.comb(n, k) > spec["max_units"]:
        raise funcdist.TooLarge(f"C({n},{k}) beyond the engineered-net budget")
    dist = funcdist.MonomialK(n, k)
    f = dist.draw(np.random.default_rng(seed + k))
    net = netcore.build_monomial_net(n, k, max_units=spec["max_units"])
    readout = [net.graph.edge_index()[e] for _, e in netcore.monomial_readout_edges(net)]
    # LMS stability on +-1 features needs lr < 2 / n_units
    gamma = min(spec["gamma"], 0.5 / math.comb(n, k))
    cfg = descent.DescentConfig(gamma=gamma, steps=spec["train_steps"], seed=seed + k)
    source = funcdist.SampleSource.planted(f, funcdist.UniformInputs(n), seed=seed + 17 * k)
    trained, _ = descent.sgd_run(
        net, source, netcore.SQUARED_ERROR, cfg, record_steps=False, trainable=readout
    )
    if n <= 12:
        acc = sla.accuracy_eval(trained, f)
        return (k, "engineered", acc, 0.0)
    acc = sla.accuracy_eval(trained, f, trials=spec["eval_trials"], seed=seed + 3)
    return (k, "engineered", acc, _phase_accuracy_ci(spec["eval_trials"]))


def _phase_generic(n, k, spec, seed):
    dist = funcdist.MonomialK(n, k)
    f = dist.draw(np.random.default_rng(seed + k))
    net = _pytorch_uniform_net(n, spec["mlp_widths"], seed=seed + 29 * k)
    cfg = descent.DescentConfig(gamma=spec["gamma"], steps=spec["train_steps"], seed=seed + k)
    source = funcdist.SampleSource.planted(f, funcdist.UniformInputs(n), seed=seed + 31 * k)
    trained, _ = descent.sgd_run(
        net, source, netcore.LOGISTIC_BCE, cfg, record_steps=False
    )
    if n <= 12:
        acc = sla.accuracy_eval(trained, f, loss=netcore.LOGISTIC_BCE)
        return (k, "generic_mlp", acc, 0.0)
    acc = sla.accuracy_eval(
        trained, f, trials=spec["eval_trials"], seed=seed + 5, loss=netcore.LOGISTIC_BCE
    )
    return (k, "generic_mlp", acc, _phase_accuracy_ci(spec["eval_trials"]))


def cmd_bounds(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(
        config,
        {
            "gd_grid": (list, []),
            "sgd_grid": (list, []),
            "empirical": (dict, {}),
        },
        "bounds",
    )
    rows = []
    for entry in spec["gd_grid"]:
        e = _check_keys(
            entry,
            {
                "gamma": (float, _REQUIRED),
                "overflow_b": (float, _REQUIRED),
                "steps": (int, _REQUIRED),
                "m": (int, _REQUIRED),
                "n": (int, _REQUIRED),
                "sigma2": (float, _REQUIRED),
            },
            "bounds.gd_grid[]",
        )
        if e["sigma2"] <= 0:
            raise SchemaError("bound_gd is undefined at sigma^2 = 0: "
                              "the noiseless algorithm has no accuracy cap")
        rows.append(
            ("gd", e["gamma"], e["overflow_b"], e["steps"], e["m"], e["n"], e["sigma2"],
             sla.bound_gd(e["gamma"], e["overflow_b"], e["steps"], e["m"], e["n"], e["sigma2"]))
        )
    for entry in spec["sgd_grid"]:
        e = _check_keys(
            entry,
            {
                "gamma": (float, _REQUIRED),
                "overflow_b": (float, _REQUIRED),
                "steps": (int, _REQUIRED),
                "m": (int, _REQUIRED),
                "n": (int, _REQUIRED),
                "p": (float, 0.0),
                "c_const": (float, 1.0),
            },
            "bounds.sgd_grid[]",
        )
        rows.append(
            ("sgd", e["gamma"], e["overflow_b"], e["steps"], e["m"], e["n"], e["p"],
             sla.bound_sgd(e["steps"], e["m"], e["overflow_b"], e["gamma"], e["n"],
                           e["p"], e["c_const"]))
        )
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
    e = _check_keys(
        section,
        {
            "n": (int, _REQUIRED),
            "widths": (list, [16]),
            "gamma": (float, 0.01),
            "overflow_b": (float, 1.0),
            "steps": (int, 500),
            "sigma2": (float, _REQUIRED),
            "n_parities": (int, 50),
        },
        "bounds.empirical",
    )
    if e["sigma2"] <= 0:
        raise SchemaError("empirical noisy-GD run needs sigma^2 > 0")
    _int_list(e["widths"], "bounds.empirical.widths", low=1)
    _at_least_one(e["n_parities"], "bounds.empirical.n_parities")
    accs = noisy_gd_parity_accuracies(
        n=e["n"], widths=e["widths"], gamma=e["gamma"], overflow_b=e["overflow_b"],
        steps=e["steps"], sigma2=e["sigma2"], n_parities=e["n_parities"], seed=seed,
    )
    net_edges = netcore.build_mlp(e["n"], e["widths"], netcore.SIGMOID).n_edges
    bound = sla.bound_gd(e["gamma"], e["overflow_b"], e["steps"], net_edges, e["n"], e["sigma2"])
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

    def worker(i):
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
        return sla.accuracy_eval(final, f)

    return _seed_sweep(worker, range(n_parities))


def cmd_gen_aer(config: dict, ctx: RunContext) -> int:
    spec = _check_keys(
        config,
        {
            "n": (int, _REQUIRED),
            "m": (float, _REQUIRED),
            "r": (int, _REQUIRED),
            "count": (int, 1),
        },
        "gen-aer",
    )
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
        top = _check_keys(
            full,
            {
                "experiment": (str, _REQUIRED),
                "seed": (int, 0),
                "parameters": (dict, {}),
                "output_dir": (str, "lab_out"),
            },
            "config",
        )
        if top["experiment"] != args.command:
            raise SchemaError(
                f"config is for experiment {top['experiment']!r}, not {args.command!r}"
            )
        seed = args.seed if args.seed is not None else top["seed"]
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
