import hashlib
import json
import warnings

import pytest

from paritylab import funcdist as fd
from paritylab import labcli
from paritylab import netcore
from _util import brute_force_girth


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[-1].startswith("# sha256=")
    body = "\n".join(lines[:-1]) + "\n"
    digest = lines[-1].split("=", 1)[1]
    assert hashlib.sha256(body.encode()).hexdigest() == digest
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:-1]]


class TestXpred:
    def test_parity_value_in_file(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "xpred", "seed": 1, "output_dir": str(tmp_path / "out"),
            "parameters": {"distribution": {"kind": "parity_uniform", "n": 6}},
        })
        assert labcli.main(["xpred", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "xpred.json").read_text())
        assert doc["value"] == 0.015625
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config_digest"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert manifest["finished"] is not None
        assert (manifest["status"], manifest["exit_code"], manifest["error"]) == ("ok", 0, None)

    def test_monte_carlo_route(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "xpred", "seed": 2, "output_dir": str(tmp_path / "out"),
            "parameters": {
                "distribution": {"kind": "constant_mixture", "n": 8, "p_const": 0.2},
                "outer_pairs": 400, "inner_x": 64,
            },
        })
        assert labcli.main(["xpred", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "xpred.json").read_text())
        assert doc["method"] == "monte_carlo" and doc["trials"] == 400

    def test_reproducible_bytes(self, tmp_path):
        base = {
            "experiment": "xpred", "seed": 5, "output_dir": "",
            "parameters": {"distribution": {"kind": "monomial_k", "n": 8, "k": 2}},
        }
        outs = []
        for name in ("a", "b"):
            cfg = write_config(tmp_path, {**base, "output_dir": str(tmp_path / name)},
                               name=f"{name}.json")
            assert labcli.main(["xpred", "--config", str(cfg)]) == 0
            outs.append((tmp_path / name / "xpred.json").read_bytes())
        assert outs[0] == outs[1]


class TestSchemaAndExitCodes:
    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "xpred", "bogus": 1,
            "parameters": {"distribution": {"kind": "parity_uniform", "n": 4}},
        })
        assert labcli.main(["xpred", "--config", str(cfg)]) == 2

    def test_unknown_parameter_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "xpred",
            "parameters": {"distribution": {"kind": "parity_uniform", "n": 4},
                           "mystery": True},
        })
        assert labcli.main(["xpred", "--config", str(cfg)]) == 2

    def test_wrong_experiment_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "train", "parameters": {}})
        assert labcli.main(["xpred", "--config", str(cfg)]) == 2

    def test_budget_refusal_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "xpred", "output_dir": str(tmp_path / "out"),
            "parameters": {"distribution": {"kind": "parity_uniform", "n": 16},
                           "method": "exact"},
        })
        assert labcli.main(["xpred", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("parameters, code, status, error", [
        ({"distribution": {"kind": "parity_uniform", "n": -3}}, 2, "invalid",
         "schema error: bad value in distribution"),
        ({"distribution": {"kind": "parity_uniform", "n": 16}, "method": "exact"}, 3,
         "refused", "budget refusal: "),
    ])
    def test_failed_run_leaves_manifest_with_status(self, tmp_path, parameters, code,
                                                    status, error):
        cfg = write_config(tmp_path, {"experiment": "xpred", "parameters": parameters,
                                      "output_dir": str(tmp_path / "out")})
        assert labcli.main(["xpred", "--config", str(cfg)]) == code
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == status and manifest["exit_code"] == code
        assert manifest["error"].startswith(error)
        assert manifest["finished"] is not None

    @pytest.mark.parametrize("top, error", [
        ({"experiment": "xpred", "seed": True}, "schema error: config.seed must be"),
        ({"experiment": "train"}, "schema error: config is for experiment 'train'"),
    ])
    @pytest.mark.parametrize("via_flag", [False, True])
    def test_bad_top_level_key_leaves_manifest(self, tmp_path, top, error, via_flag):
        out = tmp_path / "out"
        doc = {**top, "parameters": {"distribution": {"kind": "parity_uniform", "n": 4}}}
        argv = ["xpred"]
        if via_flag:
            argv += ["--out", str(out)]
        else:
            doc["output_dir"] = str(out)
        cfg = write_config(tmp_path, doc)
        assert labcli.main(argv + ["--config", str(cfg)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["status"], manifest["exit_code"]) == ("invalid", 2)
        assert manifest["error"].startswith(error)
        assert manifest["config_digest"] == hashlib.sha256(cfg.read_bytes()).hexdigest()

    @pytest.mark.parametrize("doc", [5, [{"experiment": "xpred"}], {"output_dir": 5}])
    def test_config_without_known_output_exits_2_without_manifest(self, tmp_path,
                                                                  monkeypatch, doc):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, doc)
        assert labcli.main(["xpred", "--config", str(cfg)]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_crash_leaves_manifest_with_status(self, tmp_path, monkeypatch):
        def broken(parameters, ctx):
            raise RuntimeError("boom")

        monkeypatch.setitem(labcli.COMMANDS, "xpred", broken)
        cfg = write_config(tmp_path, {"experiment": "xpred",
                                      "output_dir": str(tmp_path / "out")})
        with pytest.raises(RuntimeError, match="boom"):
            labcli.main(["xpred", "--config", str(cfg)])
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "crashed" and manifest["exit_code"] is None
        assert manifest["error"] == "RuntimeError: boom"

    def test_missing_config_exit_2(self, tmp_path):
        assert labcli.main(["xpred", "--config", str(tmp_path / "nope.json")]) == 2

    def test_zero_noise_bound_refused(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "bounds", "output_dir": str(tmp_path / "out"),
            "parameters": {"gd_grid": [{
                "gamma": 0.1, "overflow_b": 1.0, "steps": 10, "m": 50, "n": 10,
                "sigma2": 0.0,
            }]},
        })
        assert labcli.main(["bounds", "--config", str(cfg)]) == 2


    @pytest.mark.parametrize("top, where", [
        ({"parameters": {"distribution": {"kind": "parity_uniform", "n": -3}}},
         "n >= 1"),
        ({"seed": True, "parameters": {"distribution": {"kind": "parity_uniform", "n": 4}}},
         "config.seed"),
        ({"parameters": {"distribution": {"kind": "constant_mixture", "n": 8,
                                          "p_const": 0.9}}},
         "p_const"),
    ])
    def test_bad_values_exit_2_with_one_line(self, tmp_path, capsys, top, where):
        cfg = write_config(tmp_path, {"experiment": "xpred",
                                      "output_dir": str(tmp_path / "out"), **top})
        assert labcli.main(["xpred", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and where in err and "Traceback" not in err
        assert not (tmp_path / "out" / "xpred.json").exists()

    @pytest.mark.parametrize("net, descent_section", [
        ({"widths": [0]}, {"gamma": 0.1, "steps": 4, "coord_budget": 1,
                           "quantization_bits": [8, 4]}),
        ({"widths": [3]}, {"gamma": -0.1, "steps": 4, "coord_budget": 1,
                           "quantization_bits": [8, 4]}),
        ({"widths": [3]}, {"gamma": 0.1, "steps": 4, "coord_budget": 1,
                           "quantization_bits": [8, 9]}),
    ])
    def test_bad_net_or_descent_values_exit_2(self, tmp_path, capsys, net, descent_section):
        cfg = write_config(tmp_path, {
            "experiment": "distinguish", "output_dir": str(tmp_path / "out"),
            "parameters": {"distribution": {"kind": "parity_uniform", "n": 4},
                           "steps": 4, "trials": 20, "net": net,
                           "descent": descent_section},
        })
        assert labcli.main(["distinguish", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("schema error: bad value in ")

    @pytest.mark.parametrize("command, parameters, where", [
        ("train", {"n": 4, "function_mask": 99, "net": {"widths": [3]},
                   "descent": {"gamma": 0.1, "steps": 5}}, "mask out of range"),
        ("gen-aer", {"n": 10, "m": 3.0, "r": 2}, "r >= 3"),
        ("phase", {"n": 6, "k_values": [0]}, "phase.k_values"),
        ("phase", {"n": 6, "k_values": [2], "methods": [["engineered"]]}, "phase methods"),
        ("train", {"n": 4, "function_mask": 3, "net": {"widths": [True]},
                   "descent": {"gamma": 0.1, "steps": 5}}, "net.widths"),
    ])
    def test_bad_command_values_exit_2_with_one_line(self, tmp_path, capsys, command,
                                                     parameters, where):
        cfg = write_config(tmp_path, {"experiment": command,
                                      "output_dir": str(tmp_path / "out"),
                                      "parameters": parameters})
        assert labcli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and where in err and "Traceback" not in err


    @pytest.mark.parametrize("command, parameters, where", [
        ("gridparity", {"grid_k": 2, "widths": [4], "epochs": 1, "train_count": 5,
                        "test_count": 5, "n_seeds": 0}, "gridparity.n_seeds"),
        ("bounds", {"empirical": {"n": 4, "widths": [3], "steps": 2, "sigma2": 0.5,
                                  "n_parities": 0}}, "bounds.empirical.n_parities"),
    ])
    def test_empty_sweeps_exit_2_with_one_line(self, tmp_path, capsys, command, parameters,
                                               where):
        cfg = write_config(tmp_path, {"experiment": command,
                                      "output_dir": str(tmp_path / "out"),
                                      "parameters": parameters})
        assert labcli.main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and where in err and "Traceback" not in err
        assert not list((tmp_path / "out").glob("*.csv"))
        assert not (tmp_path / "out" / "bounds_empirical.json").exists()


class TestDivergence:
    @staticmethod
    def _train(tmp_path, gamma):
        cfg = write_config(tmp_path, {
            "experiment": "train", "seed": 0, "output_dir": str(tmp_path / "out"),
            "parameters": {"n": 6, "function_mask": 0b101101, "algorithm": "sgd",
                           "net": {"widths": [8], "activation": "relu"},
                           "descent": {"gamma": gamma, "steps": 50}},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return labcli.main(["train", "--config", str(cfg)])

    def test_non_finite_weights_exit_2_with_one_line(self, tmp_path, capsys):
        assert self._train(tmp_path, 1e308) == 2
        err = capsys.readouterr().err
        assert err == "diverged: sgd: non-finite weights after 50 steps\n"
        assert not (tmp_path / "out" / "net.json").exists()

    def test_large_finite_step_still_succeeds(self, tmp_path):
        assert self._train(tmp_path, 1e6) == 0
        net = netcore.net_from_json((tmp_path / "out" / "net.json").read_text())
        assert 1e5 < float(abs(net.weights.values).max()) < 1e300


class TestBoundsCommand:
    def test_grid_rows(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "bounds", "output_dir": str(tmp_path / "out"),
            "parameters": {
                "gd_grid": [
                    {"gamma": 0.1, "overflow_b": 1.0, "steps": 10, "m": 50,
                     "n": 10, "sigma2": 0.01},
                    {"gamma": 0.1, "overflow_b": 1.0, "steps": 20, "m": 50,
                     "n": 10, "sigma2": 0.01},
                ],
                "sgd_grid": [
                    {"gamma": 0.001, "overflow_b": 1.0, "steps": 5, "m": 10,
                     "n": 12, "p": 0.0},
                ],
            },
        })
        assert labcli.main(["bounds", "--config", str(cfg)]) == 0
        header, rows = read_csv_rows(tmp_path / "out" / "bounds.csv")
        assert header[0] == "family" and len(rows) == 3
        # monotone in steps
        assert float(rows[1][-1]) >= float(rows[0][-1])

    @pytest.mark.parametrize("seed, digest", [
        (21, "f624855339884b633ad9badb45fda5497b7d0168d5be93d265f9c624df774cb9"),
        (22, "d769c3915744ce1e715e08685371c4f84ef3574cc35956a6168a2bfcb80e20d6"),
    ])
    def test_monte_carlo_file_pinned(self, tmp_path, seed, digest):
        # taken before the Monte-Carlo estimators were folded into one helper
        # and the random table built its keyed hasher once per batch
        cfg = write_config(tmp_path, {
            "experiment": "xpred", "seed": seed, "output_dir": str(tmp_path / "out"),
            "parameters": {"distribution": {"kind": "constant_mixture", "n": 16,
                                            "p_const": 0.25},
                           "outer_pairs": 2000},
        })
        assert labcli.main(["xpred", "--config", str(cfg)]) == 0
        blob = (tmp_path / "out" / "xpred.json").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest


class TestGenAer:
    def test_files_and_girth(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "gen-aer", "seed": 4, "output_dir": str(tmp_path / "out"),
            "parameters": {"n": 24, "m": 8.0, "r": 4, "count": 3},
        })
        assert labcli.main(["gen-aer", "--config", str(cfg)]) == 0
        header, rows = read_csv_rows(tmp_path / "out" / "aer_index.csv")
        assert len(rows) == 3
        for row in rows:
            graph = fd.read_graph(tmp_path / "out" / row[0])
            assert brute_force_girth(graph) >= 4
            assert row[6] == "1"


class TestDistinguishCommand:
    def test_constant_machine(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "distinguish", "seed": 0,
            "output_dir": str(tmp_path / "out"),
            "parameters": {
                "distribution": {"kind": "parity_uniform", "n": 5},
                "steps": 8, "trials": 20, "machine": "constant",
            },
        })
        assert labcli.main(["distinguish", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "distinguish.json").read_text())
        assert doc["ci_low"] <= 0.5 <= doc["ci_high"]

    def test_sgd_machine(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "distinguish", "seed": 1,
            "output_dir": str(tmp_path / "out"),
            "parameters": {
                "distribution": {"kind": "parity_uniform", "n": 6},
                "steps": 12, "trials": 20, "machine": "sgd_sla",
                "net": {"widths": [4]},
                "descent": {"gamma": 0.25, "steps": 12, "coord_budget": 1,
                            "quantization_bits": [8, 4]},
            },
        })
        assert labcli.main(["distinguish", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "distinguish.json").read_text())
        assert 0.0 <= doc["accuracy"] <= 1.0


class TestTrainCommand:
    def test_sgd_smoke(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "train", "seed": 2, "output_dir": str(tmp_path / "out"),
            "parameters": {
                "n": 5, "function_mask": 3,
                "net": {"widths": [6], "activation": "tanh"},
                "descent": {"gamma": 0.1, "steps": 300},
            },
        })
        assert labcli.main(["train", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "train.json").read_text())
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert (tmp_path / "out" / "net.json").exists()

    def test_gd_smoke(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "train", "seed": 3, "output_dir": str(tmp_path / "out"),
            "parameters": {
                "n": 4, "function_mask": 5, "algorithm": "gd",
                "net": {"widths": [4]},
                "descent": {"gamma": 0.05, "steps": 20,
                            "noise_kind": "gaussian", "noise_variance": 0.001},
            },
        })
        assert labcli.main(["train", "--config", str(cfg)]) == 0


class TestGridparityCommand:
    def test_tiny_run_reproducible(self, tmp_path):
        base = {
            "experiment": "gridparity", "seed": 7, "output_dir": "",
            "parameters": {"grid_k": 3, "widths": [8], "epochs": 2,
                           "train_count": 40, "test_count": 40, "n_seeds": 2},
        }
        outputs = []
        for name in ("a", "b"):
            cfg = write_config(tmp_path, {**base, "output_dir": str(tmp_path / name)},
                               name=f"{name}.json")
            assert labcli.main(["gridparity", "--config", str(cfg)]) == 0
            blobs = {
                p.name: p.read_bytes()
                for p in sorted((tmp_path / name).glob("*.csv"))
            }
            outputs.append(blobs)
        assert outputs[0] == outputs[1]
        header, rows = read_csv_rows(tmp_path / "a" / "gridparity_seed7.csv")
        assert header == ["epoch", "train_loss", "train_err", "test_err"]
        assert len(rows) == 2

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "gridparity", "seed": 7,
            "output_dir": str(tmp_path / "out"),
            "parameters": {"grid_k": 3, "widths": [8], "epochs": 1,
                           "train_count": 20, "test_count": 20},
        })
        assert labcli.main(["gridparity", "--config", str(cfg), "--seed", "11"]) == 0
        assert (tmp_path / "out" / "gridparity_seed11.csv").exists()


class TestPhaseCommand:
    def test_small_phase_table(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "phase", "seed": 5, "output_dir": str(tmp_path / "out"),
            "parameters": {"n": 8, "k_values": [1], "train_steps": 800,
                           "mlp_widths": [16]},
        })
        assert labcli.main(["phase", "--config", str(cfg)]) == 0
        header, rows = read_csv_rows(tmp_path / "out" / "phase.csv")
        methods = {row[1] for row in rows}
        assert methods == {"engineered", "generic_mlp"}
        engineered = [float(r[2]) for r in rows if r[1] == "engineered"]
        assert engineered[0] >= 0.95


class TestThreads:
    def test_lab_threads_does_not_change_results(self, tmp_path, monkeypatch):
        base = {
            "experiment": "gridparity", "seed": 3, "output_dir": "",
            "parameters": {"grid_k": 3, "widths": [6], "epochs": 2,
                           "train_count": 30, "test_count": 30, "n_seeds": 3},
        }
        blobs = []
        for name, threads in (("serial", "1"), ("pooled", "3")):
            monkeypatch.setenv("LAB_THREADS", threads)
            out = tmp_path / name
            cfg = write_config(tmp_path, {**base, "output_dir": str(out)},
                               name=f"{name}.json")
            assert labcli.main(["gridparity", "--config", str(cfg)]) == 0
            blobs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert blobs[0] == blobs[1]


class TestPopulationGdReproducible:
    """Population GD with a clamp that fires: reruns and LAB_THREADS leave
    every result file byte-identical."""

    BOUNDS = {
        "experiment": "bounds", "seed": 4,
        "parameters": {"empirical": {"n": 8, "widths": [16], "gamma": 0.05,
                                     "overflow_b": 0.05, "steps": 50,
                                     "sigma2": 0.01, "n_parities": 2}},
    }
    TRAIN = {
        "experiment": "train", "seed": 4,
        "parameters": {"n": 8, "function_mask": 0b10110101, "algorithm": "gd",
                       "net": {"widths": [16]},
                       "descent": {"gamma": 0.05, "steps": 50, "overflow_b": 0.05,
                                   "noise_kind": "gaussian", "noise_variance": 0.01}},
    }

    @staticmethod
    def _results(tmp_path, base, name):
        out = tmp_path / name
        cfg = write_config(tmp_path, {**base, "output_dir": str(out)}, name=f"{name}.json")
        assert labcli.main([base["experiment"], "--config", str(cfg)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name != "manifest.json"}

    def _first_run_clamps(self, tmp_path, base, monkeypatch):
        hits = []
        population_into = netcore.NeuralNet._population_into

        def recording(*args):
            gradient = population_into(*args)

            def step():
                expected, hit = gradient()
                hits.append(hit)
                return expected, hit
            return step

        with monkeypatch.context() as m:
            m.setattr(netcore.NeuralNet, "_population_into", recording)
            first = self._results(tmp_path, base, "first")
        assert any(hits)
        return first

    def test_bounds_empirical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LAB_THREADS", raising=False)
        first = self._first_run_clamps(tmp_path, self.BOUNDS, monkeypatch)
        assert set(first) == {"bounds.csv", "bounds_empirical.json"}
        assert self._results(tmp_path, self.BOUNDS, "second") == first
        for threads in ("1", "2"):
            monkeypatch.setenv("LAB_THREADS", threads)
            assert self._results(tmp_path, self.BOUNDS, f"threads{threads}") == first

    def test_train_gd(self, tmp_path, monkeypatch):
        first = self._first_run_clamps(tmp_path, self.TRAIN, monkeypatch)
        assert set(first) == {"net.json", "train.json"}
        assert self._results(tmp_path, self.TRAIN, "second") == first


class TestUniformInitNet:
    def test_initial_weight_bytes(self):
        # digests of the weights each caller drew before the ReLU and sigmoid
        # builders were one function: the grid-parity net of seed 3 and the
        # noisy-GD net of parity 5 at seed 808
        relu = labcli._pytorch_uniform_net(9, [16], seed=3 * 7919 + 3)
        sigmoid = labcli._pytorch_uniform_net(12, [16], 808 * 100003 + 7 * 5 + 1,
                                              activation=netcore.SIGMOID)
        assert relu.activation is netcore.RELU
        assert relu.activation_of(relu.graph.output) == netcore.SIGMOID
        assert sigmoid.activation is netcore.SIGMOID and not sigmoid.vertex_activations
        digests = [hashlib.sha256(net.weights.values.tobytes()).hexdigest()
                   for net in (relu, sigmoid)]
        assert digests == [
            "aa75d96e0d6cf198d16e5ac602a254ec85e1d57772936e465f5c4de006dc947e",
            "2e9df8ed7df24b9b3cb99e13f45d12072bfcea6c31ca70838f249ea6e48e001b",
        ]


class TestPhaseFailureDirection:
    def test_generic_mlp_fails_on_wide_monomial(self, tmp_path):
        # k = n/2 at n = 16: cross-predictability 1/C(16,8) ~ 8e-5; a generic
        # MLP with a desk budget stays near chance
        cfg = write_config(tmp_path, {
            "experiment": "phase", "seed": 1, "output_dir": str(tmp_path / "out"),
            "parameters": {"n": 16, "k_values": [8], "train_steps": 3000,
                           "mlp_widths": [32, 32], "eval_trials": 4000,
                           "methods": ["generic_mlp"]},
        })
        assert labcli.main(["phase", "--config", str(cfg)]) == 0
        _, rows = read_csv_rows(tmp_path / "out" / "phase.csv")
        assert rows[0][1] == "generic_mlp"
        assert float(rows[0][2]) <= 0.55

    def test_engineered_budget_refusal(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "phase", "seed": 1, "output_dir": str(tmp_path / "out"),
            "parameters": {"n": 16, "k_values": [8], "max_units": 100},
        })
        assert labcli.main(["phase", "--config", str(cfg)]) == 3


class TestBoundsEmpirical:
    def test_small_noisy_gd_run(self, tmp_path):
        cfg = write_config(tmp_path, {
            "experiment": "bounds", "seed": 2, "output_dir": str(tmp_path / "out"),
            "parameters": {"empirical": {"n": 8, "widths": [6], "gamma": 0.02,
                                         "overflow_b": 1.0, "steps": 60,
                                         "sigma2": 0.5, "n_parities": 4}},
        })
        assert labcli.main(["bounds", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "bounds_empirical.json").read_text())
        assert doc["mean_accuracy"] <= doc["bound"]
        assert len(doc["accuracies"]) == 4


class TestGridparityPinned:
    def test_csv_bytes(self, tmp_path):
        # pinned before the single-sample loop updated one weight buffer in place
        cfg = write_config(tmp_path, {
            "experiment": "gridparity", "seed": 4, "output_dir": str(tmp_path / "out"),
            "parameters": {"grid_k": 3, "widths": [8, 8], "epochs": 3,
                           "train_count": 60, "test_count": 40, "n_seeds": 2},
        })
        assert labcli.main(["gridparity", "--config", str(cfg)]) == 0
        digest = hashlib.sha256()
        for name in ("gridparity_seed4.csv", "gridparity_seed5.csv",
                     "gridparity_summary.csv"):
            digest.update((tmp_path / "out" / name).read_bytes())
        assert digest.hexdigest() == (
            "481e48dc9c125e346ead2855b4bbbf41f22fa3f98ff9aa9d1cc42f77d15fe14c")
