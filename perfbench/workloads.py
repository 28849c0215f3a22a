"""The four `lab` workloads: config from the workload seed, step count,
output checks and program checks.

Net shapes and step counts are those of the acceptance criteria; only the
number of runs in one `lab` invocation is sized for the benchmark.  The
`lab` seed of invocation i is ``seed * 1000 + i``.  ``steps()`` is the number
of descent steps (Monte-Carlo pairs on ``xpred_mc``) one invocation makes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks


def lab_seed(seed: int, index: int) -> int:
    """The `lab` seed of invocation ``index`` of a run with workload ``seed``."""
    return seed * 1000 + index


class NoisyGd:
    """`lab bounds` with an `empirical` block: criterion 8's noisy population GD."""

    name = "noisy_gd"
    command = "bounds"
    traced_invocations = 1

    params = {"empirical": {"n": 12, "widths": [16], "gamma": 0.01, "overflow_b": 1.0,
                            "steps": 500, "sigma2": 2.0 ** (-12 / 10.0), "n_parities": 1}}

    def steps(self):
        e = self.params["empirical"]
        return e["steps"] * e["n_parities"]

    def check_output(self, out: Path, seed):
        doc = json.loads((out / "bounds_empirical.json").read_text())
        e = self.params["empirical"]
        degrees = checks.planted_parity_degrees(seed, e["n_parities"], e["n"])
        return checks.check_noisy_gd(doc, self.params, degrees)

    def check_program(self, pl, seed):
        """One noiseless gd_step against the hand-written population gradient,
        with the clamp idle (B = 1) and firing (B = 0.05)."""
        nc, dc, fd = pl.netcore, pl.descent, pl.funcdist
        rng = np.random.default_rng(seed)
        net = nc.build_mlp(12, [16], nc.SIGMOID, init="he_uniform", rng=rng)
        f = fd.ParityUniform(12).draw(rng)
        pop = dc.Population.uniform_grid(12, f.evaluate_batch)
        fails = []
        for b in (1.0, 0.05):
            stepped = dc.gd_step(net, pop, nc.SQUARED_ERROR, 1.0, overflow_b=b)
            ref = checks.population_step_reference(net, pop.xs, pop.ys, pop.probs, 1.0, b)
            step = stepped.weights.values.astype(np.longdouble) - net.weights.values
            err = checks.relative_error(step, ref)
            if not err <= 1e-12:
                fails.append(f"gd_step with B={b} is {err:.1e} from the reference")
        return fails


class GridSgd:
    """`lab gridparity`: criterion 5's single-sample SGD on 5x5 parity images."""

    name = "grid_sgd"
    command = "gridparity"
    traced_invocations = 1

    params = {"grid_k": 5, "widths": [64, 64, 64], "epochs": 80, "train_count": 1000,
              "test_count": 1000, "gamma": 0.1, "loss": "squared", "n_seeds": 1}

    def steps(self):
        p = self.params
        return p["epochs"] * p["train_count"] * p["n_seeds"]

    def check_output(self, out: Path, seed):
        seeds = [seed + i for i in range(self.params["n_seeds"])]
        texts = {p.name: p.read_text() for p in sorted(out.glob("gridparity_*.csv"))}
        expected = {f"gridparity_seed{s}.csv" for s in seeds} | {"gridparity_summary.csv"}
        if set(texts) != expected:
            return [f"CSV files {sorted(texts)} != {sorted(expected)}"]
        return checks.check_grid_sgd(texts, self.params, seeds)

    def check_program(self, pl, seed):
        return []


class SlaDistinguish:
    """`lab distinguish` with the `sgd_sla` machine: criterion 9."""

    name = "sla_distinguish"
    command = "distinguish"
    traced_invocations = 2

    params = {"distribution": {"kind": "parity_uniform", "n": 16}, "steps": 200,
              "trials": 20, "statistic": "prediction_count", "machine": "sgd_sla",
              "net": {"widths": [8], "activation": "sigmoid", "init": "he_uniform"},
              "descent": {"gamma": 0.1, "steps": 200, "coord_budget": 1,
                          "quantization_bits": [8, 4]}}

    def steps(self):
        # calibration, planted and null traces, one per trial each
        return 3 * self.params["trials"] * self.params["steps"]

    def check_output(self, out: Path, seed):
        doc = json.loads((out / "distinguish.json").read_text())
        return checks.check_sla_distinguish(doc, self.params)

    def check_program(self, pl, seed):
        """Replaying one trial's symbols equals cd_run on the same source, and
        every symbol is a budget-1 change onto the 8-bit, 2^-4 lattice."""
        nc, dc, fd, sla = pl.netcore, pl.descent, pl.funcdist, pl.sla
        rng = np.random.default_rng(seed)
        base = nc.build_mlp(16, [8], nc.SIGMOID, init="he_uniform", rng=rng)
        cfg = dc.DescentConfig(gamma=0.1, steps=200, coord_budget=1,
                               quantization=nc.QuantizationSpec(8, 4), seed=seed + 1)
        f = fd.ParityUniform(16).draw(rng)
        machine = sla.sgd_as_sla(base, nc.SQUARED_ERROR, cfg)
        source = fd.SampleSource.planted(f, fd.UniformInputs(16), seed=seed + 2)
        trace = sla.run_trace(machine, source, 200)
        replayed = machine.replay(trace.symbols).weights.values
        final, _ = dc.cd_run(base, fd.SampleSource.planted(f, fd.UniformInputs(16), seed=seed + 2),
                             nc.SQUARED_ERROR, cfg, record_steps=False)
        fails = []
        if replayed.tobytes() != final.weights.values.tobytes():
            fails.append("replayed SLA weights differ from cd_run")
        limit = 127 / 16
        for t, (changed, _) in enumerate(trace.symbols, start=1):
            if len(changed) > 1:
                fails.append(f"step {t} changed {len(changed)} edges")
            for _, value in changed:
                if value * 16 != round(value * 16) or abs(value) > limit:
                    fails.append(f"step {t}: {value!r} is off the 2^-4 lattice")
        return fails


class XpredMc:
    """`lab xpred` on constant_mixture: no closed form, so Monte Carlo."""

    name = "xpred_mc"
    command = "xpred"
    traced_invocations = 4

    params = {"distribution": {"kind": "constant_mixture", "n": 16, "p_const": 0.25},
              "outer_pairs": 2000}

    def steps(self):
        return self.params["outer_pairs"]

    def check_output(self, out: Path, seed):
        return checks.check_xpred_mc(json.loads((out / "xpred.json").read_text()), self.params)

    def check_program(self, pl, seed):
        return []


WORKLOADS = {w.name: w for w in (NoisyGd(), GridSgd(), SlaDistinguish(), XpredMc())}
