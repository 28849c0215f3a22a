import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from paritylab import funcdist as fd
from paritylab import labcli
from paritylab import netcore
from _util import brute_force_girth


@pytest.fixture(autouse=True, scope="module")
def _run_in_a_temporary_directory(tmp_path_factory):
    """A config with no output_dir writes to ./lab_out: keep it out of the checkout."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("cwd"))
        yield


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
        ({"parameters": {"distribution": {"kind": "monomial_k", "n": 0, "k": 0}}},
         "n >= 1"),
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
        ("phase", {"n": 6, "k_values": [2], "methods": [["engineered"]]}, "phase.methods"),
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
        ("phase", {"n": 6, "k_values": []}, "phase.k_values"),
        ("phase", {"n": 6, "k_values": [2], "methods": []}, "phase.methods"),
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

    def test_stacked_gridparity_names_the_seed_and_epoch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "experiment": "gridparity", "seed": 7, "output_dir": str(tmp_path / "out"),
            "parameters": {**_GRIDPARITY_BASE, "train_count": 20, "loss": "bce", "gamma": 1e308,
                           "n_seeds": 2},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert labcli.main(["gridparity", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        # seed 7's row stays finite through epoch 1; seed 8's does not
        assert err == "diverged: gridparity seed 8: non-finite weights after epoch 1\n"
        assert _gridparity_csvs(tmp_path) == []

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
        (21, "350cfd319935fdae20aa19155de3e7b1913e07c93e2a36550dfff308626b8797"),
        (22, "1ea10cff00acc9c7eb1d286c83280fafedbf30b520d4b596426c2c5dd913b0bc"),
    ])
    def test_monte_carlo_file_pinned(self, tmp_path, seed, digest):
        # taken when random tables became a keyed SplitMix64 hash of the whole
        # batch; the pair loop's draws are pinned by the parity file below
        cfg = write_config(tmp_path, {
            "experiment": "xpred", "seed": seed, "output_dir": str(tmp_path / "out"),
            "parameters": {"distribution": {"kind": "constant_mixture", "n": 16,
                                            "p_const": 0.25},
                           "outer_pairs": 2000},
        })
        assert labcli.main(["xpred", "--config", str(cfg)]) == 0
        blob = (tmp_path / "out" / "xpred.json").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("seed, digest", [
        (21, "e60f380ee1ae439c589d3d27d8acb670def0e404f57daeb00125b72e0f3d0b75"),
        (22, "3a5fb5ac0ca2e490d619335a2dfd49d93ab46784573c595b5dcab59b55b8bde4"),
    ])
    def test_monte_carlo_parity_file_pinned(self, tmp_path, seed, digest):
        # taken while random tables were keyed BLAKE2b: parities evaluate no
        # table, so these bytes pin the pair loop's draws from the generator
        cfg = write_config(tmp_path, {
            "experiment": "xpred", "seed": seed, "output_dir": str(tmp_path / "out"),
            "parameters": {"distribution": {"kind": "parity_uniform", "n": 10},
                           "method": "monte_carlo", "outer_pairs": 2000},
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


_DISTINGUISH_BASE = {
    "distribution": {"kind": "parity_uniform", "n": 4},
    "steps": 5, "trials": 20, "machine": "gf2_solver",
}
_SGD_SECTIONS = {"net": {"widths": [2]}, "descent": {"gamma": 0.25, "steps": 5}}


def _run_lab(command, parameters, out_dir):
    """labcli.main on a config of ``command`` with lab seed 3, writing to
    out_dir / "out": its exit code, stderr and manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = write_config(out_dir, {"experiment": command, "seed": 3,
                                 "output_dir": str(out_dir / "out"),
                                 "parameters": parameters})
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = labcli.main([command, "--config", str(cfg)])
    manifest = json.loads((out_dir / "out" / "manifest.json").read_text())
    return code, stderr.getvalue(), manifest


_STARTUP_PROBE = """
import json, sys
from pathlib import Path
from paritylab import labcli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(command, parameters):
    out = Path(sys.argv[1]) / command
    out.mkdir()
    cfg = out / "config.json"
    cfg.write_text(json.dumps({"experiment": command, "seed": 3, "output_dir": str(out / "out"),
                               "parameters": parameters}))
    assert labcli.main([command, "--config", str(cfg)]) == 0

seen = {"import": scipy_modules()}
run("xpred", {"distribution": {"kind": "parity_uniform", "n": 6}, "method": "closed_form"})
seen["xpred"] = scipy_modules()
run("distinguish", json.loads(sys.argv[2]))
seen["distinguish"] = scipy_modules()
print(json.dumps(seen))
"""


class TestStartup:
    def test_only_distinguish_loads_scipy(self, tmp_path):
        """In a fresh interpreter, importing labcli and running `lab xpred`
        loads no scipy module; `lab distinguish` loads scipy.special for its
        interval and still not scipy.stats."""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE, str(tmp_path), json.dumps(_DISTINGUISH_BASE)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        assert seen["import"] == [] and seen["xpred"] == [], seen
        assert "scipy.special" in seen["distinguish"]
        assert "scipy.stats" not in seen["distinguish"]


class TestDistinguishContract:
    @pytest.mark.parametrize("change", [
        {"steps": 0},
        {"trials": 19},
        {"statistic": "bogus"},
        {"distribution": {"kind": "constant_mixture", "n": 4, "p_const": 0.5}},
        {"machine": "sgd_sla", **_SGD_SECTIONS},
        {"cap_constant": -1.0},
        {"cap_constant": math.inf},
        {"cap_constant": math.nan},
        {"distribution": {"kind": "monomial_k", "n": 0, "k": 0}},
        {"machine": "sgd_sla", "net": {"widths": [2]},
         "descent": {"gamma": 0.25, "steps": 12, "coord_budget": 1, "quantization_bits": [8, 4]}},
        {"machine": "gf2_solver", **_SGD_SECTIONS},
        {"machine": "gf2_solver", "net": {"widths": [2]}},
        {"machine": "constant", "descent": {"gamma": 0.25, "steps": 5}},
    ], ids=["steps0", "trials19", "statistic", "no_closed_form", "unbounded_alphabet",
            "negative_cap", "infinite_cap", "nan_cap", "monomial_n0", "sgd_descent_steps",
            "gf2_net_descent", "gf2_net", "constant_descent"])
    def test_invalid_config_exits_2(self, tmp_path, change):
        code, stderr, manifest = _run_lab("distinguish", {**_DISTINGUISH_BASE, **change},
                                          tmp_path)
        assert code == 2
        assert len(stderr.strip().splitlines()) == 1 and "Traceback" not in stderr
        assert "pred_value" not in stderr  # a lab config has no such key
        assert manifest["status"] == "invalid" and manifest["error"]
        assert not (tmp_path / "out" / "distinguish.json").exists()

    @settings(max_examples=40, deadline=None)
    @given(
        dist=st.one_of(
            st.builds(lambda n: {"kind": "parity_uniform", "n": n}, st.integers(-1, 5)),
            st.builds(lambda n, k: {"kind": "monomial_k", "n": n, "k": k},
                      st.integers(0, 5), st.integers(-1, 6)),
            st.builds(lambda n: {"kind": "uniform_all", "n": n}, st.integers(0, 5)),
            st.builds(lambda p: {"kind": "constant_mixture", "n": 3, "p_const": p},
                      st.sampled_from([0.0, 0.5, 1.5])),
            st.just({"kind": "bogus", "n": 3}),
        ),
        steps=st.integers(-1, 4),
        trials=st.sampled_from([0, 19, 20, 21]),
        statistic=st.sampled_from(["prediction_count", "final_acc_bit", "bogus"]),
        machine=st.sampled_from(["constant", "gf2_solver", "sgd_sla", "bogus"]),
        widths=st.lists(st.integers(-1, 2), max_size=2),
        budget=st.integers(-1, 2),
        bits=st.sampled_from([[], [8, 4], [4], [2, 4]]),
        gamma=st.sampled_from([0.25, 0.0, -1.0, math.inf]),
        cap=st.sampled_from([1.0, 0.0, -1.0, math.inf, math.nan, None]),
    )
    def test_fuzzed_configs_keep_the_exit_contract(self, dist, steps, trials, statistic,
                                                   machine, widths, budget, bits, gamma, cap):
        """Any config exits 0, 2 or 3, with no traceback, and leaves a
        manifest with a status."""
        parameters = {"distribution": dist, "steps": steps, "trials": trials,
                      "statistic": statistic, "machine": machine,
                      "net": {"widths": widths},
                      "descent": {"gamma": gamma, "steps": 4, "coord_budget": budget,
                                  "quantization_bits": bits}}
        if cap is not None:
            parameters["cap_constant"] = cap
        with tempfile.TemporaryDirectory() as tmp:
            code, stderr, manifest = _run_lab("distinguish", parameters, Path(tmp))
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr
        assert manifest["status"] in ("ok", "invalid", "refused")


_GRIDPARITY_BASE = {"grid_k": 2, "widths": [3], "epochs": 2, "train_count": 3,
                    "test_count": 3, "gamma": 0.1, "n_seeds": 1}


def _gridparity_csvs(out_dir):
    return sorted(p.name for p in (out_dir / "out").glob("gridparity_*.csv"))


class TestGridparityContract:
    @pytest.mark.parametrize("change", [
        {"grid_k": 0}, {"epochs": 0}, {"epochs": -1}, {"train_count": -1},
        {"train_count": 0}, {"test_count": 0}, {"gamma": -1.0}, {"gamma": math.inf},
        {"gamma": math.nan}, {"n_seeds": 0}, {"widths": [3, 0]}, {"loss": "hinge"},
    ], ids=["grid_k0", "epochs0", "epochs-1", "train-1", "train0", "test0", "gamma-1",
            "gamma_inf", "gamma_nan", "seeds0", "width0", "loss"])
    def test_invalid_config_exits_2(self, tmp_path, change):
        code, stderr, manifest = _run_lab("gridparity", {**_GRIDPARITY_BASE, **change},
                                          tmp_path)
        assert code == 2
        assert len(stderr.strip().splitlines()) == 1 and "Traceback" not in stderr
        assert manifest["status"] == "invalid" and manifest["error"]
        assert _gridparity_csvs(tmp_path) == []

    @settings(max_examples=60, deadline=None)
    @given(
        grid_k=st.integers(-1, 3),
        widths=st.lists(st.one_of(st.integers(-1, 3), st.just(1.5), st.just("2"),
                                  st.just(True)), max_size=2),
        epochs=st.integers(-1, 3),
        train_count=st.integers(-1, 3),
        test_count=st.integers(-1, 3),
        gamma=st.sampled_from([0.1, 0.0, 2.0, -1.0, math.inf, -math.inf, math.nan]),
        loss=st.sampled_from(["squared", "bce", "bogus"]),
        n_seeds=st.integers(-1, 2),
    )
    def test_fuzzed_configs_keep_the_exit_contract(self, grid_k, widths, epochs, train_count,
                                                   test_count, gamma, loss, n_seeds):
        """Any config exits 0, 2 or 3, with no traceback, and leaves a
        manifest with a status; only a run that exits 0 writes CSVs, and
        their numbers are finite."""
        parameters = {"grid_k": grid_k, "widths": widths, "epochs": epochs,
                      "train_count": train_count, "test_count": test_count,
                      "gamma": gamma, "loss": loss, "n_seeds": n_seeds}
        with tempfile.TemporaryDirectory() as tmp:
            code, stderr, manifest = _run_lab("gridparity", parameters, Path(tmp))
            csvs = _gridparity_csvs(Path(tmp))
            rows = [row for name in csvs
                    for row in read_csv_rows(Path(tmp) / "out" / name)[1]]
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr
        assert manifest["status"] in ("ok", "invalid", "refused")
        if code == 0:
            assert len(csvs) == n_seeds + 1
            assert all(math.isfinite(float(v)) for row in rows for v in row)
        else:
            assert csvs == []


_MIXTURE_16 = {"kind": "constant_mixture", "n": 16, "p_const": 0.25}
_GD_ROW = {"gamma": 0.1, "overflow_b": 1.0, "steps": 10, "m": 50, "n": 10, "sigma2": 0.5}
_EMPIRICAL = {"n": 4, "widths": [3], "steps": 2, "sigma2": 0.5, "n_parities": 1}
_TRAIN_BASE = {"n": 4, "function_mask": 3, "net": {"widths": [3]}}


_FUZZ_FLOATS = st.sampled_from([0.5, 2.0, 0.0, -1.0, math.inf, -math.inf, math.nan])
_FUZZ_INTS = st.integers(-1, 3)
_FUZZ_SCALES = st.sampled_from([0.5, 2.0, math.inf, 0.0, math.nan])
_CONTRACT_FUZZ = {
    "xpred": st.fixed_dictionaries({
        "distribution": st.one_of(
            st.builds(lambda n: {"kind": "parity_uniform", "n": n}, _FUZZ_INTS),
            st.builds(lambda p: {"kind": "constant_mixture", "n": 3, "p_const": p},
                      _FUZZ_FLOATS)),
        "method": st.sampled_from(["auto", "exact", "closed_form", "monte_carlo", "bogus"]),
        "outer_pairs": _FUZZ_INTS,
        "inner_x": _FUZZ_INTS,
    }),
    "bounds": st.fixed_dictionaries({
        "gd_grid": st.lists(st.fixed_dictionaries({
            "gamma": _FUZZ_FLOATS, "overflow_b": _FUZZ_FLOATS, "steps": _FUZZ_INTS,
            "m": _FUZZ_INTS, "n": _FUZZ_INTS, "sigma2": _FUZZ_FLOATS}), max_size=1),
        "sgd_grid": st.lists(st.fixed_dictionaries({
            "gamma": _FUZZ_FLOATS, "overflow_b": _FUZZ_FLOATS, "steps": _FUZZ_INTS,
            "m": _FUZZ_INTS, "n": _FUZZ_INTS, "p": _FUZZ_FLOATS,
            "c_const": _FUZZ_FLOATS}), max_size=1),
    }),
    "gen-aer": st.fixed_dictionaries({
        "n": st.integers(-1, 6), "m": _FUZZ_FLOATS, "r": st.integers(2, 4),
        "count": _FUZZ_INTS,
    }),
    "train": st.fixed_dictionaries({
        "n": st.integers(0, 6),
        "function_mask": st.integers(-1, 7),
        "algorithm": st.sampled_from(["sgd", "cd", "gd", "bogus"]),
        "loss": st.sampled_from(["squared", "bce", "bogus"]),
        "net": st.fixed_dictionaries({
            "widths": st.lists(st.one_of(st.integers(-1, 4), st.just(1.5)), max_size=2),
        }, optional={
            "activation": st.sampled_from(["sigmoid", "tanh", "relu", "cosine", "bogus"]),
            "out_activation": st.sampled_from(["", "sigmoid", "identity", "bogus"]),
            "init": st.sampled_from(["he_uniform", "gaussian_fan_in", "zeros", "bogus"]),
        }),
        "descent": st.fixed_dictionaries({
            "gamma": _FUZZ_FLOATS, "steps": st.integers(-1, 20),
            "coord_budget": _FUZZ_INTS,
        }, optional={
            "overflow_b": _FUZZ_SCALES,
            "weight_clamp_b": _FUZZ_SCALES,
            "noise_kind": st.sampled_from(["none", "gaussian", "uniform", "bogus"]),
            "noise_variance": _FUZZ_SCALES,
            "noise_halfwidth": _FUZZ_SCALES,
            "init_perturb_variance": _FUZZ_SCALES,
            "quantization_bits": st.lists(st.integers(0, 10), max_size=3),
            "coord_rule": st.sampled_from(["topk", "randomk", "bogus"]),
        }),
    }),
    "phase": st.fixed_dictionaries({
        "n": st.integers(-1, 6),
        "k_values": st.lists(st.integers(-1, 7), max_size=2),
        "train_steps": st.integers(-1, 20),
        "gamma": _FUZZ_FLOATS,
        "eval_trials": _FUZZ_INTS,
        "mlp_widths": st.lists(st.integers(-1, 4), max_size=2),
        "max_units": st.integers(-1, 20),
        "methods": st.lists(st.sampled_from(["engineered", "generic_mlp", "bogus"]),
                            max_size=2),
    }),
}


class TestCommandContracts:
    """xpred, bounds, gen-aer, train and phase refuse these configs up front:
    exit 2 with a one-line reason, an invalid manifest and no result file."""

    @pytest.mark.parametrize("command, parameters", [
        ("xpred", {"distribution": _MIXTURE_16, "outer_pairs": 1}),
        ("xpred", {"distribution": _MIXTURE_16, "inner_x": 1}),
        ("bounds", {"empirical": {**_EMPIRICAL, "steps": -1}}),
        ("bounds", {"empirical": {**_EMPIRICAL, "gamma": 0.0}}),
        ("bounds", {"empirical": {**_EMPIRICAL, "sigma2": math.nan}}),
        ("bounds", {"gd_grid": [{**_GD_ROW, "steps": -10}]}),
        ("bounds", {"gd_grid": [{**_GD_ROW, "sigma2": math.nan}]}),
        ("bounds", {"gd_grid": [{**_GD_ROW, "gamma": math.nan}]}),
        ("bounds", {"sgd_grid": [{"gamma": 0.1, "overflow_b": 1.0, "steps": 10, "m": 5,
                                  "n": 8, "p": -0.5}]}),
        ("bounds", {"sgd_grid": [{"gamma": 0.1, "overflow_b": 1.0, "steps": 10, "m": 5,
                                  "n": 8, "c_const": -100.0}]}),
        ("bounds", {"sgd_grid": [{"gamma": 0.1, "overflow_b": 1.0, "steps": 10, "m": 5,
                                  "n": 8, "c_const": math.nan}]}),
        ("bounds", {"gd_grid": [{**_GD_ROW, "gamma": math.inf, "steps": 0}]}),
        ("bounds", {"sgd_grid": [{"gamma": math.inf, "overflow_b": 1.0, "steps": 0, "m": 5,
                                  "n": 8}]}),
        ("gen-aer", {"n": 20, "m": math.nan, "r": 3}),
        ("gen-aer", {"n": 20, "m": 3.0, "r": 3, "count": 0}),
        ("train", {**_TRAIN_BASE, "algorithm": "cd",
                   "descent": {"gamma": 0.1, "steps": 5, "coord_budget": 0}}),
        ("train", {**_TRAIN_BASE, "algorithm": "gd",
                   "descent": {"gamma": 0.1, "steps": 5, "coord_budget": 2}}),
        ("train", {**_TRAIN_BASE, "algorithm": "sgd",
                   "descent": {"gamma": 0.1, "steps": 5, "coord_budget": 2}}),
        ("train", {**_TRAIN_BASE, "n": 0, "function_mask": 0,
                   "descent": {"gamma": 0.1, "steps": 5}}),
        ("train", {**_TRAIN_BASE, "algorithm": "gd",
                   "descent": {"gamma": 0.1, "steps": 5, "overflow_b": math.nan}}),
        ("train", {**_TRAIN_BASE, "descent": {"gamma": 10 ** 400, "steps": 5}}),
        ("train", {**_TRAIN_BASE, "descent": {"gamma": math.nan, "steps": 5}}),
        ("train", {**_TRAIN_BASE, "descent": {"gamma": 0.1, "steps": 5, "noise_kind": "gaussian",
                                              "noise_variance": math.nan}}),
        ("train", {**_TRAIN_BASE, "descent": {"gamma": 0.1, "steps": 5, "noise_kind": "uniform",
                                              "noise_halfwidth": math.nan}}),
        ("train", {**_TRAIN_BASE, "descent": {"gamma": 0.1, "steps": 5,
                                              "init_perturb_variance": math.nan}}),
        ("bounds", {"gd_grid": [{**_GD_ROW, "steps": 10 ** 400}]}),
        ("bounds", {"sgd_grid": [{"gamma": 0.1, "overflow_b": 1.0, "steps": 10, "m": 10 ** 400,
                                  "n": 8}]}),
        ("phase", {"n": 13, "k_values": [1], "eval_trials": 0}),
        ("phase", {"n": 6, "k_values": [1], "eval_trials": -1}),
        ("phase", {"n": 6, "k_values": [1], "gamma": -1.0}),
        ("phase", {"n": 6, "k_values": [1], "train_steps": -1}),
        ("phase", {"n": 6, "k_values": [1], "mlp_widths": [10 ** 400]}),
        ("bounds", {"gd_grid": [3]}),
        ("train", {**_TRAIN_BASE, "descent": {"gamma": 0.1, "steps": 5, "noise_variance": 0.5}}),
        ("train", {**_TRAIN_BASE, "descent": {"gamma": 0.1, "steps": 5, "noise_kind": "gaussian",
                                              "noise_halfwidth": 3.0}}),
        ("train", {**_TRAIN_BASE, "descent": {"gamma": 0.1, "steps": 5, "coord_rule": "randomk"}}),
        ("train", {**_TRAIN_BASE, "net": {"widths": [3], "init": "bogus"},
                   "descent": {"gamma": 0.1, "steps": 5}}),
    ], ids=["xpred_outer1", "xpred_inner1", "empirical_steps-1", "empirical_gamma0",
            "empirical_sigma2_nan", "gd_steps-10", "gd_sigma2_nan", "gd_gamma_nan",
            "sgd_p-0.5", "sgd_c-100", "sgd_c_nan", "gd_gamma_inf_steps0",
            "sgd_gamma_inf_steps0", "aer_m_nan", "aer_count0", "train_cd_budget0",
            "train_gd_budget2", "train_sgd_budget2", "train_n0", "train_overflow_nan",
            "train_gamma_1e400", "train_gamma_nan", "train_noise_variance_nan",
            "train_noise_halfwidth_nan", "train_perturb_nan", "gd_steps_1e400", "sgd_m_1e400", "phase_n13_trials0",
            "phase_trials-1", "phase_gamma-1", "phase_steps-1", "phase_width_1e400",
            "gd_row_not_dict", "train_variance_under_none", "train_halfwidth_under_gaussian",
            "train_randomk_no_budget", "train_init_bogus"])
    def test_invalid_config_exits_2(self, tmp_path, command, parameters):
        code, stderr, manifest = _run_lab(command, parameters, tmp_path)
        assert code == 2
        assert len(stderr.strip().splitlines()) == 1 and "Traceback" not in stderr
        assert manifest["status"] == "invalid" and manifest["error"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("command", ["xpred", "bounds", "gen-aer", "train", "phase"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fuzzed_configs_keep_the_exit_contract(self, command, data):
        """Any config exits 0, 2 or 3, with no traceback, and leaves a
        manifest with a status; only a run that exits 0 writes results, and
        what they compute is in range.  (bounds' empirical block is left out:
        it trains nets.  train and phase train tiny ones: n <= 6, at most 20
        steps, hidden widths <= 4.)"""
        parameters = data.draw(_CONTRACT_FUZZ[command])
        with tempfile.TemporaryDirectory() as tmp:
            code, stderr, manifest = _run_lab(command, parameters, Path(tmp))
            out = Path(tmp) / "out"
            results = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            if code == 0 and command == "xpred":
                values = [json.loads((out / "xpred.json").read_text())["value"]]
            elif code == 0 and command == "bounds":
                values = [float(row[-1]) for row in read_csv_rows(out / "bounds.csv")[1]]
            elif code == 0 and command == "train":
                values = [json.loads((out / "train.json").read_text())["accuracy"]]
            elif code == 0 and command == "phase":
                values = [float(row[2]) for row in read_csv_rows(out / "phase.csv")[1]]
        assert code in (0, 2, 3)
        assert "Traceback" not in stderr
        assert manifest["status"] in ("ok", "invalid", "refused")
        if code != 0:
            assert results == []
        elif command == "gen-aer":
            assert len(results) == parameters["count"] + 1
        else:
            assert all(0.0 <= v <= 1.0 for v in values)


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


    @pytest.mark.parametrize("algorithm, budget", [("sgd", 0), ("cd", 3)])
    def test_overflow_b_clamps_the_sample_gradient(self, tmp_path, algorithm, budget):
        """A B that fires changes the trained net; the default B is infinite."""
        nets = []
        for name, clamp in (("unclamped", {}), ("clamped", {"overflow_b": 1e-9})):
            cfg = write_config(tmp_path, {
                "experiment": "train", "seed": 2, "output_dir": str(tmp_path / name),
                "parameters": {
                    "n": 5, "function_mask": 3, "algorithm": algorithm,
                    "net": {"widths": [6], "activation": "tanh"},
                    "descent": {"gamma": 0.1, "steps": 50, "coord_budget": budget, **clamp},
                },
            }, name=f"{name}.json")
            assert labcli.main(["train", "--config", str(cfg)]) == 0
            nets.append((tmp_path / name / "net.json").read_bytes())
        assert nets[0] != nets[1]


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


class TestPopulationGdReproducible:
    """Population GD with a clamp that fires: a rerun leaves every result
    file byte-identical."""

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
        first = self._first_run_clamps(tmp_path, self.BOUNDS, monkeypatch)
        assert set(first) == {"bounds.csv", "bounds_empirical.json"}
        assert self._results(tmp_path, self.BOUNDS, "second") == first

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


class TestDivergedEvaluation:
    def test_overflowing_gridparity_exits_2_without_csv(self, tmp_path, capsys):
        # squared loss keeps the weights finite near 1e308, so only evaluation overflows
        cfg = write_config(tmp_path, {
            "experiment": "gridparity", "output_dir": str(tmp_path / "out"),
            "parameters": {**_GRIDPARITY_BASE, "gamma": 1e308, "loss": "squared"},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert labcli.main(["gridparity", "--config", str(cfg), "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "diverged: evaluation met a non-finite pre-activation\n"
        assert _gridparity_csvs(tmp_path) == []
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "invalid"


# per key table with bounds or names: the command, a config that runs, and
# the path of the table's section in that config's parameters
_TABLE_SITES = {
    "xpred": ("xpred", {"distribution": _MIXTURE_16}, ()),
    "net": ("train", {**_TRAIN_BASE, "descent": {"gamma": 0.1, "steps": 5}}, ("net",)),
    "descent": ("train", {**_TRAIN_BASE, "descent": {"gamma": 0.1, "steps": 5}}, ("descent",)),
    "distinguish": ("distinguish", _DISTINGUISH_BASE, ()),
    "train": ("train", {**_TRAIN_BASE, "descent": {"gamma": 0.1, "steps": 5}}, ()),
    "gridparity": ("gridparity", _GRIDPARITY_BASE, ()),
    "phase": ("phase", {"n": 6, "k_values": [1], "train_steps": 5}, ()),
    "bounds.empirical": ("bounds", {"empirical": _EMPIRICAL}, ("empirical",)),
    "gen-aer": ("gen-aer", {"n": 20, "m": 3.0, "r": 3}, ()),
}


def _key_tables():
    yield from labcli.KEY_TABLES.items()
    for _, keys in labcli.DISTRIBUTIONS.values():
        yield "distribution", keys


def _out_of_range_cases():
    """(where, key, value) for every bounded key: just below its low bound,
    just above its high bound where it has one, and NaN for a float.  The
    top-level table's bound (seed) sits outside parameters, so TestSeedBound
    covers it on every command."""
    for where, table in _key_tables():
        if where == "config":
            continue
        for key, (typ, _, *bounds) in table.items():
            if not bounds:
                continue
            elem = typ[0] if isinstance(typ, list) else typ
            low, high = (*bounds, None)[:2]
            if elem is float:
                values = [math.nextafter(low, -math.inf), math.nan]
                values += [] if high is None else [math.nextafter(high, math.inf)]
            else:
                values = [low - 1] + ([] if high is None else [high + 1])
            for value in values:
                yield where, key, [value] if isinstance(typ, list) else value


def _names(typ):
    """The names a key of type ``typ`` may take: () unless it is a name set."""
    elem = typ[0] if isinstance(typ, list) else typ
    return elem if isinstance(elem, tuple) else ()


def _unknown_name_cases():
    """(where, key, value) for every name-valued key: a name outside its set,
    and its last name in capitals."""
    for where, table in _key_tables():
        for key, (typ, *_) in table.items():
            names = _names(typ)
            for value in ("bogus", names[-1].upper()) if names else ():
                yield where, key, [value] if isinstance(typ, list) else value


class TestKeyTableBounds:
    @staticmethod
    def _assert_refused(tmp_path, where, key, value):
        """The table's config site with ``value`` at where.key exits 2 on that key."""
        assert where in _TABLE_SITES, f"no config site for the table {where}"
        command, parameters, path = _TABLE_SITES[where]
        parameters = json.loads(json.dumps(parameters))
        section = parameters
        for step in path:
            section = section[step]
        section[key] = value
        code, stderr, manifest = _run_lab(command, parameters, tmp_path)
        assert code == 2
        assert len(stderr.strip().splitlines()) == 1 and f"{where}.{key}" in stderr
        assert stderr.startswith(f"schema error: bad value in {where}.{key}")
        assert manifest["status"] == "invalid"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("where, key, value", list(_out_of_range_cases()),
                             ids=lambda v: repr(v) if not isinstance(v, str) else v)
    def test_out_of_range_value_exits_2(self, tmp_path, where, key, value):
        self._assert_refused(tmp_path, where, key, value)

    @pytest.mark.parametrize("where, key, value", list(_unknown_name_cases()),
                             ids=lambda v: repr(v) if not isinstance(v, str) else v)
    def test_unknown_name_exits_2(self, tmp_path, where, key, value):
        self._assert_refused(tmp_path, where, key, value)

    def test_every_key_is_named_in_the_readme(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cli = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        missing = sorted({f"{where}.{key}" for where, table in _key_tables()
                          for key in table if f"`{key}`" not in cli})
        assert missing == []
        unnamed = sorted({name for _, table in _key_tables() for typ, *_ in table.values()
                          for name in _names(typ) if name and f"`{name}`" not in cli})
        assert unnamed == []


# valid parameters of each of the seven commands, from their table sites
_COMMAND_PARAMETERS = {command: parameters for command, parameters, _ in _TABLE_SITES.values()}


class TestSeedBound:
    """A negative seed exits 2 naming the seed, whether it comes from the
    config or from --seed, on every command."""

    @staticmethod
    def _run(tmp_path, command, seed, flag, parameters=None):
        cfg = write_config(tmp_path, {"experiment": command, "seed": seed,
                                      "output_dir": str(tmp_path / "out"),
                                      "parameters": parameters or _COMMAND_PARAMETERS[command]})
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = labcli.main([command, "--config", str(cfg)] + flag)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        return code, stderr.getvalue(), manifest

    def test_every_command_has_parameters(self):
        assert sorted(_COMMAND_PARAMETERS) == sorted(labcli.COMMANDS)

    @pytest.mark.parametrize("command", sorted(labcli.COMMANDS))
    @pytest.mark.parametrize("seed, flag, name", [
        (-1, [], "config.seed"), (0, ["--seed", "-2"], "--seed")], ids=["config", "flag"])
    def test_negative_seed_exits_2(self, tmp_path, command, seed, flag, name):
        code, stderr, manifest = self._run(tmp_path, command, seed, flag)
        assert code == 2
        assert len(stderr.strip().splitlines()) == 1 and "Traceback" not in stderr
        assert stderr.startswith(f"schema error: bad value in {name}: must be >= 0")
        assert (manifest["status"], manifest["exit_code"]) == ("invalid", 2)
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.one_of(st.integers(-3, 3), st.sampled_from([-(2 ** 64), 2 ** 64 - 1])),
           flag=st.booleans())
    def test_fuzzed_seed_keeps_the_exit_contract(self, seed, flag):
        """A seed runs (exit 0) exactly when it is >= 0, by either path."""
        with tempfile.TemporaryDirectory() as tmp:
            args = (0, ["--seed", str(seed)]) if flag else (seed, [])
            code, stderr, manifest = self._run(Path(tmp), "xpred", *args, parameters={
                "distribution": {"kind": "parity_uniform", "n": 4}})
        assert code == (0 if seed >= 0 else 2)
        assert "Traceback" not in stderr
        assert manifest["status"] == ("ok" if seed >= 0 else "invalid")
