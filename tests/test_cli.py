import contextlib
import dataclasses
import io
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bprlab import agents, analysis, cli, envs, errors, numerics
from bprlab.cli import EXIT_AUDIT, EXIT_OK, EXIT_USAGE

DATA_DIR = Path(__file__).parent / "data"


def run(args):
    return cli.main(args)


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=reject)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestGenData:
    def test_writes_loadable_dataset(self, workdir):
        assert run(["gen-data", "--task", "pointmass", "--behavior", "medium",
                    "--n", "50", "--seed", "1", "--name", "d.jsonl", "--out", "."]) == EXIT_OK
        ds = envs.load_dataset("d.jsonl")
        assert ds.n == 50 and ds.state_dim == 4

    def test_deterministic_bytes(self, workdir):
        for name in ("a.jsonl", "b.jsonl"):
            run(["gen-data", "--task", "gridworld", "--behavior", "eps_greedy:0.3",
                 "--n", "200", "--seed", "5", "--name", name, "--out", "."])
        assert open("a.jsonl", "rb").read() == open("b.jsonl", "rb").read()

    # The files under tests/data/ were written by an earlier release; generation
    # must rebuild them byte for byte, not only load and save them.
    @pytest.mark.parametrize("name, argv", [
        ("gridworld-eps0.3-50.jsonl",
         ["--task", "gridworld", "--behavior", "eps_greedy:0.3", "--n", "50"]),
        ("pointmass-mixture-20.jsonl",
         ["--task", "pointmass", "--behavior", "mixture:expert:0.5,medium:0.5", "--n", "20"]),
        # four episodes, the last cut short: episode boundaries and mixture draws
        ("pointmass-mixture-350.jsonl",
         ["--task", "pointmass", "--behavior", "mixture:expert:0.5,medium:0.5", "--n", "350"]),
    ], ids=["gridworld", "pointmass", "pointmass-episodes"])
    def test_rebuilds_the_pinned_files_byte_for_byte(self, workdir, name, argv):
        assert run(["gen-data", *argv, "--seed", "0", "--name", name, "--out", "."]) == EXIT_OK
        assert (workdir / name).read_bytes() == (DATA_DIR / name).read_bytes()

    def test_counterexample_task(self, workdir):
        run(["gen-data", "--task", "counterexample", "--name", "c.jsonl", "--out", "."])
        ds = envs.load_dataset("c.jsonl")
        assert ds.n == 6

    def test_mixture_behavior(self, workdir):
        assert run(["gen-data", "--task", "pointmass",
                    "--behavior", "mixture:expert:0.5,medium:0.5",
                    "--n", "60", "--name", "m.jsonl", "--out", "."]) == EXIT_OK

    def test_unknown_behavior_is_usage_error(self, workdir):
        assert run(["gen-data", "--task", "pointmass", "--behavior", "wizard",
                    "--n", "10", "--out", "."]) == EXIT_USAGE

    def test_output_dir_env_var(self, workdir, monkeypatch):
        monkeypatch.setenv("BPR_OUTPUT_DIR", str(workdir / "sub"))
        run(["gen-data", "--task", "pointmass", "--n", "10", "--name", "e.jsonl"])
        assert (workdir / "sub" / "e.jsonl").exists()


class TestPretrain:
    def test_writes_checkpoint_and_manifest(self, workdir):
        run(["gen-data", "--task", "pointmass", "--n", "100", "--name", "d.jsonl", "--out", "."])
        assert run(["pretrain", "--dataset", "d.jsonl", "--steps", "20",
                    "--batch-size", "32", "--repr-dim", "6", "--hidden", "8",
                    "--name", "enc", "--out", "."]) == EXIT_OK
        from bprlab import bpr
        enc = bpr.load_encoder("enc.ckpt")
        assert enc.repr_dim == 6 and enc.frozen
        manifest = json.load(open("enc.ckpt.json"))
        assert manifest["schema_version"] == 1
        assert manifest["pretrain_steps"] == 20
        assert os.path.exists("enc-loss.csv")

    def test_missing_dataset_is_usage_error(self, workdir):
        assert run(["pretrain", "--dataset", "nope.jsonl", "--steps", "1",
                    "--out", "."]) == EXIT_USAGE

    @pytest.mark.parametrize("flags", [
        ["--hidden", "-2"], ["--hidden", "8", "0"], ["--batch-size", "0"], ["--seed", "-1"],
        ["--learning-rate=inf"], ["--learning-rate=-1"],
    ], ids=["hidden-negative", "hidden-zero", "batch-zero", "seed-negative", "lr-inf",
            "lr-negative"])
    def test_bad_value_is_usage_error(self, workdir, capsys, flags):
        run(["gen-data", "--task", "pointmass", "--n", "100", "--name", "d.jsonl", "--out", "."])
        capsys.readouterr()
        assert run(["pretrain", "--dataset", "d.jsonl", "--steps", "2", *flags,
                    "--out", "."]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_infinite_learning_rate_is_rejected_before_a_checkpoint_is_written(
            self, workdir, capsys):
        # one step at an infinite rate has a finite loss and non-finite parameters
        run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl", "--out", "."])
        capsys.readouterr()
        assert run(["pretrain", "--dataset", "d.jsonl", "--steps", "1", "--learning-rate=inf",
                    "--out", "."]) == EXIT_USAGE
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert not os.path.exists("encoder.ckpt")

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflow must not warn
    def test_divergence_after_the_first_step_exits_2(self, workdir, capsys):
        run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl", "--out", "."])
        capsys.readouterr()
        assert run(["pretrain", "--dataset", "d.jsonl", "--steps", "3", "--batch-size", "32",
                    "--hidden", "16", "--repr-dim", "4", "--learning-rate=1e300",
                    "--out", "."]) == errors.TrainingDivergenceError.exit_code == 2
        assert capsys.readouterr().err == "error: non-finite pretrain loss at step 1\n"
        assert not os.path.exists("encoder.ckpt")

    def test_zero_steps_write_a_null_final_loss_in_strict_json(self, workdir, capsys):
        run(["gen-data", "--task", "pointmass", "--n", "100", "--name", "d.jsonl", "--out", "."])
        assert run(["pretrain", "--dataset", "d.jsonl", "--steps", "0", "--repr-dim", "6",
                    "--hidden", "8", "--out", "."]) == EXIT_OK
        assert strict_json(Path("encoder.ckpt.json").read_text())["final_loss"] is None
        assert "final loss none" in capsys.readouterr().out


class TestTrain:
    def _dataset(self):
        run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl", "--out", "."])

    def test_bc_summary(self, workdir):
        self._dataset()
        assert run(["train", "--task", "pointmass", "--dataset", "d.jsonl",
                    "--algo", "bc", "--seeds", "0,1", "--gradient-steps", "30",
                    "--batch-size", "32", "--hidden", "8", "--label", "bcrun",
                    "--out", "."]) == EXIT_OK
        summary = json.load(open("bcrun-summary.json"))
        assert summary["schema_version"] == 1
        assert summary["seeds"] == [0, 1]
        assert len(summary["per_seed"]) == 2
        assert {"mean", "std", "iqm"} <= set(summary["aggregate"])
        for row in summary["per_seed"]:
            assert os.path.exists(row["trace_file"])

    def test_spibb_with_bound_report(self, workdir):
        run(["gen-data", "--task", "gridworld", "--behavior", "eps_greedy:0.3",
             "--n", "2000", "--name", "g.jsonl", "--out", "."])
        assert run(["train", "--task", "gridworld", "--dataset", "g.jsonl",
                    "--algo", "spibb", "--seeds", "0", "--gamma", "0.95",
                    "--probe-bounds", "--label", "sp", "--out", "."]) == EXIT_OK
        summary = json.load(open("sp-summary.json"))
        rep = summary["per_seed"][0]["bound_report"]
        assert rep["theorem2_slack"] >= -1e-9

    def test_wrong_algo_for_task_is_usage_error(self, workdir):
        self._dataset()
        assert run(["train", "--task", "pointmass", "--dataset", "d.jsonl",
                    "--algo", "spibb", "--out", "."]) == EXIT_USAGE

    def test_determinism_byte_identical_summaries(self, workdir):
        self._dataset()
        blobs = []
        for label in ("r1", "r2"):
            run(["train", "--task", "pointmass", "--dataset", "d.jsonl",
                 "--algo", "bc", "--seeds", "0", "--gradient-steps", "20",
                 "--batch-size", "32", "--hidden", "8", "--label", label, "--out", "."])
            raw = open(f"{label}-summary.json", "rb").read()
            blobs.append(raw.replace(label.encode(), b"LABEL"))
        assert blobs[0] == blobs[1]

    def test_config_file_with_flag_override(self, workdir):
        self._dataset()
        json.dump({"gradient-steps": 25, "hidden": [8], "batch-size": 16},
                  open("cfg.json", "w"))
        assert run(["train", "--task", "pointmass", "--dataset", "d.jsonl",
                    "--algo", "bc", "--config", "cfg.json", "--seeds", "3",
                    "--label", "cfgrun", "--out", "."]) == EXIT_OK
        summary = json.load(open("cfgrun-summary.json"))
        assert summary["seeds"] == [3]
        assert run(["train", "--task", "pointmass", "--dataset", "d.jsonl",
                    "--algo", "bc", "--gradient-steps", "25", "--hidden", "8",
                    "--batch-size", "16", "--seeds", "3", "--label", "flagrun",
                    "--out", "."]) == EXIT_OK
        flags = json.load(open("flagrun-summary.json"))
        assert summary["per_seed"][0]["final_return_mean"] == flags["per_seed"][0]["final_return_mean"]

    def test_unknown_config_field_is_usage_error(self, workdir):
        self._dataset()
        json.dump({"not-a-flag": 1}, open("bad.json", "w"))
        assert run(["train", "--task", "pointmass", "--dataset", "d.jsonl",
                    "--algo", "bc", "--config", "bad.json", "--out", "."]) == EXIT_USAGE

    def test_a_flag_given_at_its_default_beats_the_config(self, workdir, monkeypatch):
        self._dataset()
        json.dump({"batch-size": 16, "gradient-steps": 3}, open("cfg.json", "w"))
        seen = []
        monkeypatch.setattr(cli, "_train_one_seed", lambda args, *_: seen.append(args) or {
            "seed": 0, "final_return_mean": 0.0, "trace_file": "t.csv"})
        assert run(["train", "--task", "pointmass", "--dataset", "d.jsonl", "--algo", "bc",
                    "--batch-size", "256", "--config", "cfg.json", "--out", "."]) == EXIT_OK
        assert (seen[0].batch_size, seen[0].gradient_steps) == (256, 3)


class TestCoTrain:
    ARGS = ["--task", "pointmass", "--dataset", "d.jsonl", "--algo", "td3bc",
            "--encoder", "enc.ckpt", "--co-train", "--gradient-steps", "10",
            "--batch-size", "16", "--hidden", "8", "--label", "co"]

    def _encoder(self):
        run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl", "--out", "."])
        run(["pretrain", "--dataset", "d.jsonl", "--steps", "5", "--batch-size", "16",
             "--repr-dim", "4", "--hidden", "8", "--name", "enc", "--out", "."])
        return open("enc.ckpt", "rb").read()

    def test_each_seed_co_trains_its_own_copy(self, workdir):
        ckpt = self._encoder()
        assert run(["train", *self.ARGS, "--seeds", "0,1", "--out", "both"]) == EXIT_OK
        for seed in ("0", "1"):
            assert run(["train", *self.ARGS, "--seeds", seed, "--out", f"s{seed}"]) == EXIT_OK
        rows = json.load(open("both/co-summary.json"))["per_seed"]
        assert rows[0] == json.load(open("s0/co-summary.json"))["per_seed"][0]
        assert rows[1] == json.load(open("s1/co-summary.json"))["per_seed"][0]
        assert open("enc.ckpt", "rb").read() == ckpt

    def test_co_train_needs_td3bc(self, workdir):
        self._encoder()
        args = [a if a != "td3bc" else "cql" for a in self.ARGS]
        assert run(["train", *args, "--out", "."]) == EXIT_USAGE


class TestGridworldDiscount:
    def _dataset(self):
        run(["gen-data", "--task", "gridworld", "--behavior", "eps_greedy:0.3",
             "--n", "2000", "--seed", "0", "--name", "g.jsonl", "--out", "."])

    def test_spibb_uses_the_mdp_discount(self, workdir):
        from bprlab import agents
        self._dataset()
        assert run(["train", "--task", "gridworld", "--dataset", "g.jsonl",
                    "--algo", "spibb", "--label", "sp", "--out", "."]) == EXIT_OK
        delta_hat = json.load(open("sp-summary.json"))["per_seed"][0]["delta_hat"]
        cfg = agents.AgentConfig(algorithm="spibb", gamma=0.95)
        want = agents.train_spibb_tabular(envs.load_dataset("g.jsonl"), 25, 4, cfg)
        assert delta_hat == want.j_hat_out - want.j_hat_behavior
        assert abs(delta_hat - 0.1070) < 5e-4

    def test_disagreeing_gamma_is_usage_error(self, workdir):
        self._dataset()
        assert run(["train", "--task", "gridworld", "--dataset", "g.jsonl",
                    "--algo", "spibb", "--gamma", "0.99", "--out", "."]) == EXIT_USAGE


_HEADER = {"state_dim": 1, "action_dim": 1, "n": 1, "behavior_tag": ""}
_ROW = {"s": [0.0], "a": [1.0], "r": 0.0, "s2": [0.0], "d": 1}


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


_MALFORMED = {
    "no-state_dim": (_without(_HEADER, "state_dim"), [_ROW]),
    "no-action_dim": (_without(_HEADER, "action_dim"), [_ROW]),
    "no-n": (_without(_HEADER, "n"), [_ROW]),
    "no-behavior_tag": (_without(_HEADER, "behavior_tag"), [_ROW]),
    "bad-header-json": ("{not json", [_ROW]),
    "bad-row-json": (_HEADER, ["{not json"]),
    "row-missing-r": (_HEADER, [_without(_ROW, "r")]),
    "wide-s": (_HEADER, [{**_ROW, "s": [0.0, 1.0]}]),
    "wide-a": (_HEADER, [{**_ROW, "a": [1.0, 1.0]}]),
    "narrow-s2": (_HEADER, [{**_ROW, "s2": []}]),
    "string-r": (_HEADER, [{**_ROW, "r": "one"}]),
    "null-s": (_HEADER, [{**_ROW, "s": [None]}]),
    "done-2": (_HEADER, [{**_ROW, "d": 2}]),
    "n-mismatch": ({**_HEADER, "n": 2}, [_ROW]),
    "ragged-s": ({**_HEADER, "n": 2}, [_ROW, {**_ROW, "s": [[0.0]]}]),
    # the same bad line in two blocks, so that each block parses it once
    "done-2-in-two-blocks": ({**_HEADER, "n": envs.ROW_BLOCK + 1},
                             [{**_ROW, "d": 2}, *[_ROW] * (envs.ROW_BLOCK - 1), {**_ROW, "d": 2}]),
}


# good_rows valid rows before the case's own rows put its bad line after the
# first block that load_dataset reads
@pytest.mark.parametrize("header, rows, good_rows", [
    pytest.param(header, rows, good_rows, id=name + ("-after-first-block" if good_rows else ""))
    for name, (header, rows) in _MALFORMED.items() for good_rows in (0, envs.ROW_BLOCK)])
def test_malformed_dataset_is_usage_error(workdir, capsys, header, rows, good_rows):
    if isinstance(header, dict) and "n" in header:
        header = {**header, "n": header["n"] + good_rows}
    rows = [_ROW] * good_rows + rows
    lines = [x if isinstance(x, str) else json.dumps(x) for x in (header, *rows)]
    (workdir / "bad.jsonl").write_text("\n".join(lines) + "\n")
    assert run(["train", "--task", "pointmass", "--dataset", "bad.jsonl",
                "--algo", "bc", "--out", "."]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


_TRAIN_BC = ["train", "--task", "pointmass", "--dataset", "d.jsonl", "--algo", "bc",
             "--gradient-steps", "5", "--batch-size", "16", "--hidden", "8", "--out", "."]


@pytest.mark.parametrize("flags, config", [
    (["--seeds", "0,x"], None),
    (["--seeds", ""], None),
    (["--seeds", "-1"], None),
    ([], "{bad"),
    ([], "[1, 2]"),
    ([], json.dumps({"hidden": 64})),
    ([], json.dumps({"hidden": []})),
    ([], json.dumps({"gradient-steps": "5"})),
    ([], json.dumps({"learning-rate": True})),
    ([], json.dumps({"co-train": 1})),
    ([], json.dumps({"seeds": 0})),
    ([], json.dumps({"func": "cmd_audit"})),
    ([], json.dumps({"help": True})),
    (["--batch-size", "-1"], None),
    (["--batch-size", "0"], None),
    (["--hidden", "-3"], None),
    (["--hidden", "8", "0"], None),
    (["--gradient-steps", "-1"], None),
    (["--probe-ed", "5"], None),
    (["--co-train"], None),
    (["--cql-alpha=-1"], None),
    (["--learning-rate=nan"], None),
    (["--gamma=nan"], None),
    (["--algo", "td3bc", "--gamma=nan"], None),
    (["--algo", "td3bc", "--gamma=inf"], None),
    (["--algo", "td3bc", "--gamma=1.5"], None),
    (["--algo", "cql", "--gamma=-1"], None),
    ([], json.dumps({"gamma": 1.5})),
    (["--n-wedge=nan"], None),
    (["--n-wedge=-1"], None),
    (["--eval-every", "-1"], None),  # once evaluated after every step
], ids=["seeds-not-int", "seeds-empty", "seeds-negative", "config-not-json",
        "config-not-object", "hidden-int", "hidden-empty", "steps-string", "lr-bool",
        "co-train-int", "seeds-int", "not-a-flag-func", "not-a-flag-help",
        "batch-negative", "batch-zero", "hidden-negative", "hidden-zero", "steps-negative",
        "probe-without-critic", "co-train-bc", "cql-alpha-negative", "lr-nan", "gamma-nan",
        "td3bc-gamma-nan", "td3bc-gamma-inf", "td3bc-gamma-above-1", "cql-gamma-negative",
        "config-gamma-above-1", "n-wedge-nan", "n-wedge-negative",
        "eval-every-negative"])
def test_bad_flag_or_config_value_is_usage_error(workdir, capsys, flags, config):
    run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl", "--out", "."])
    if config is not None:
        (workdir / "cfg.json").write_text(config)
        flags = [*flags, "--config", "cfg.json"]
    capsys.readouterr()
    assert run([*_TRAIN_BC, *flags]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("task, flags", [
    ("gridworld", ["--encoder", "enc.ckpt"]),
    ("gridworld", ["--probe-ed", "2"]),
    ("gridworld", ["--threshold", "0.5"]),
    ("pointmass", ["--probe-bounds"]),
], ids=["gridworld-encoder", "gridworld-probe-ed", "gridworld-threshold",
        "pointmass-probe-bounds"])
def test_flag_the_task_does_not_read_is_usage_error(workdir, capsys, task, flags):
    # each flag was once ignored, and the run exited 0
    run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "pm.jsonl", "--out", "."])
    run(["pretrain", "--dataset", "pm.jsonl", "--steps", "2", "--batch-size", "16",
         "--repr-dim", "4", "--hidden", "8", "--name", "enc", "--out", "."])
    run(["gen-data", "--task", "gridworld", "--behavior", "eps_greedy:0.3", "--n", "100",
         "--name", "grid.jsonl", "--out", "."])
    capsys.readouterr()
    dataset = "grid.jsonl" if task == "gridworld" else "pm.jsonl"
    algo = "spibb" if task == "gridworld" else "td3bc"
    assert run(["train", "--task", task, "--dataset", dataset, "--algo", algo,
                "--gradient-steps", "2", "--batch-size", "16", "--hidden", "8",
                *flags, "--out", "."]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {flags[0]} does not apply to the {task} task\n"
    assert not os.path.exists(f"{algo}-summary.json")


def test_corrupt_encoder_checkpoint_is_usage_error(workdir, capsys):
    run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl", "--out", "."])
    blob = numerics.checkpoint_bytes(
        numerics.init_mlp([4, 8, 4], ["relu", "identity"], np.random.default_rng(0)))
    # truncated, and a first layer header whose rows x cols overflows ssize_t
    huge = blob[:12] + struct.pack("<IIB", 2**32 - 1, 2**32 - 1, 0) + blob[21:]
    for bad in (blob[:-5], huge):
        (workdir / "bad.ckpt").write_bytes(bad)
        capsys.readouterr()
        assert run([*_TRAIN_BC, "--encoder", "bad.ckpt"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")


def test_encoder_checkpoint_with_a_zero_width_layer_is_usage_error(workdir, capsys):
    # a (0, 4) relu layer and a (3, 0) identity layer chain, and encode every
    # state to the same representation
    run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl", "--out", "."])
    blob = (numerics.CHECKPOINT_MAGIC + struct.pack("<I", 2) + struct.pack("<IIB", 0, 4, 0)
            + struct.pack("<IIB", 3, 0, 2) + np.zeros(3).tobytes())
    (workdir / "empty.ckpt").write_bytes(blob)
    capsys.readouterr()
    assert run([*_TRAIN_BC, "--encoder", "empty.ckpt"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: a layer of shape (0, 4) has a zero dimension\n"
    assert not os.path.exists("bc-summary.json")


def test_non_finite_encoder_checkpoint_is_rejected_at_load(workdir, capsys):
    run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl", "--out", "."])
    model = numerics.init_mlp([4, 8, 4], ["relu", "identity"], np.random.default_rng(0))
    model.layers[0].weight[2, 1] = np.nan
    (workdir / "nan.ckpt").write_bytes(numerics.checkpoint_bytes(model))
    capsys.readouterr()
    assert run([*_TRAIN_BC, "--encoder", "nan.ckpt"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: checkpoint layer 0 has non-finite weights or biases\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflow must not warn
def test_diverging_run_exits_2_and_writes_no_summary(workdir, capsys):
    # parameters near 1e300 stay finite, but the policy's matmul overflows to inf - inf,
    # and its NaN action reaches the final evaluation's return
    run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl", "--out", "."])
    capsys.readouterr()
    assert run(["train", "--task", "pointmass", "--dataset", "d.jsonl", "--algo", "bc",
                "--gradient-steps", "1", "--hidden", "8", "--batch-size", "16",
                "--learning-rate=1e300", "--eval-every", "0", "--out", "."]) == 2
    assert capsys.readouterr().err == "error: non-finite return in evaluation episode 0\n"
    assert not os.path.exists("bc-summary.json")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflow must not warn
@pytest.mark.parametrize("rate, code", [("1e80", 2), ("1e70", EXIT_OK)])
def test_probe_whose_feature_gram_overflows_is_a_divergence(workdir, capsys, rate, code):
    # the probed critic features are finite at both rates; at 1e80 their Gram matrix is not
    run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl", "--out", "."])
    capsys.readouterr()
    assert run(["train", "--task", "pointmass", "--dataset", "d.jsonl", "--algo", "td3bc",
                "--gradient-steps", "1", "--hidden", "8", "8", "--batch-size", "16",
                f"--learning-rate={rate}", "--probe-ed", "1", "--eval-every", "0",
                "--out", "."]) == code
    if code == 2:
        assert capsys.readouterr().err == "error: non-finite feature Gram matrix\n"
        assert not os.path.exists("td3bc-summary.json")


@pytest.mark.parametrize("error, code", [
    (errors.RejectedInputError, 1), (OSError, 1),
    (errors.TrainingDivergenceError, 2), (errors.UnusableDatasetError, 2),
    (errors.ContractViolationError, 2), (errors.UndefinedModelError, 2),
    (errors.UnsupportedDiscountError, 2), (errors.UnavailableOracleError, 2),
    (errors.AuditFailureError, 3),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_each_error_class_exits_with_its_code_from_the_table(capsys, monkeypatch, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_audit", fail)
    assert error is OSError or error.exit_code == code
    assert run(["audit"]) == code
    err = capsys.readouterr().err
    if error is errors.AuditFailureError:
        assert json.loads(err) == {"audit_failed": True, "detail": "boom"}
    else:
        assert err == "error: boom\n"


@pytest.mark.parametrize("task, algo, name, tag", [
    ("pointmass", "td3bc", "gridworld-eps0.3-50.jsonl", None),
    ("gridworld", "spibb", "pointmass-mixture-20.jsonl", None),
    ("gridworld", "spibb", "gridworld-eps0.3-50.jsonl", "gridworld"),
], ids=["gridworld-data-on-pointmass", "pointmass-data-on-gridworld", "tag-without-colon"])
def test_dataset_that_does_not_fit_the_task_is_rejected_before_training(
        workdir, capsys, monkeypatch, task, algo, name, tag):
    def no_training(*args, **kwargs):
        raise AssertionError("training started on a dataset that does not fit the task")

    for trainer in ("train_td3bc", "train_cql", "train_spibb_tabular"):
        monkeypatch.setattr(agents, trainer, no_training)
    dataset = envs.load_dataset(str(DATA_DIR / name))
    if tag is not None:
        dataset = dataclasses.replace(dataset, behavior_tag=tag)
    envs.save_dataset(dataset, "d.jsonl")
    # --probe-bounds: only the bounds read the tag's behavior
    assert run(["train", "--task", task, "--dataset", "d.jsonl", "--algo", algo,
                "--probe-bounds", "--out", "."]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_tabular_row_that_is_not_one_hot_is_usage_error(workdir, capsys):
    lines = (DATA_DIR / "gridworld-eps0.3-50.jsonl").read_text().splitlines()
    row = json.loads(lines[5])
    row["s"] = (0.4 * np.eye(25)[0] + 0.6 * np.eye(25)[3]).tolist()
    row["a"] = [0.0] * 4
    lines[5] = json.dumps(row)
    (workdir / "d.jsonl").write_text("\n".join(lines) + "\n")
    assert run(["train", "--task", "gridworld", "--dataset", "d.jsonl", "--algo", "spibb",
                "--probe-bounds", "--out", "."]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not one-hot" in err


@pytest.mark.parametrize("argv, tag", [
    (["gen-data", "--task", "gridworld", "--behavior", "eps_greedy:x", "--n", "20"], None),
    (["gen-data", "--task", "pointmass", "--behavior", "mixture:expert", "--n", "20"], None),
    (["train", "--task", "gridworld", "--dataset", "d.jsonl", "--algo", "spibb",
      "--probe-bounds"], "gridworld:eps_greedy:x"),
], ids=["eps-not-a-number", "mixture-without-weight", "dataset-tag-eps-not-a-number"])
def test_bad_behavior_spec_is_usage_error(workdir, capsys, argv, tag):
    if tag is not None:
        dataset = envs.load_dataset(str(DATA_DIR / "gridworld-eps0.3-50.jsonl"))
        envs.save_dataset(dataclasses.replace(dataset, behavior_tag=tag), "d.jsonl")
    assert run([*argv, "--out", "."]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("algo", ["spibb", "cql"])
def test_dataset_tag_is_read_only_by_the_bounds(workdir, capsys, algo):
    # generate_dataset tags a tabular dataset "tabular", which names no gridworld behavior
    mdp = envs.make_gridworld()
    policy = envs.epsilon_greedy_policy(envs.value_iteration(mdp)[2], 0.3)
    envs.save_dataset(envs.generate_dataset(mdp, policy, 300, 0), "d.jsonl")
    argv = ["train", "--task", "gridworld", "--dataset", "d.jsonl", "--algo", algo,
            "--gradient-steps", "20", "--out", "."]
    assert run(argv) == EXIT_OK
    assert run([*argv, "--probe-bounds"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown gridworld behavior ''\n"


@pytest.mark.parametrize("algo", ["spibb", "cql"])
def test_reward_outside_the_gridworld_range_is_usage_error(workdir, capsys, algo):
    # a huge finite reward once overflowed the Bellman solve or the CQL loss (exit 2)
    lines = (DATA_DIR / "gridworld-eps0.3-50.jsonl").read_text().splitlines()
    row = json.loads(lines[5])
    row["r"] = 1e308
    lines[5] = json.dumps(row)
    (workdir / "d.jsonl").write_text("\n".join(lines) + "\n")
    assert run(["train", "--task", "gridworld", "--dataset", "d.jsonl", "--algo", algo,
                "--probe-bounds", "--out", "."]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: a reward lies outside the gridworld's [-1, 1]\n"
    assert not os.path.exists(f"{algo}-summary.json")


@pytest.mark.parametrize("algo", ["bc", "td3bc", "cql"])
def test_reward_that_is_not_the_pointmass_reward_is_usage_error(workdir, capsys, algo):
    # a huge reward once diverged TD3+BC and CQL (exit 2) and trained BC (exit 0)
    lines = (DATA_DIR / "pointmass-mixture-20.jsonl").read_text().splitlines()
    row = json.loads(lines[5])
    row["r"] = 1e308
    lines[5] = json.dumps(row)
    (workdir / "d.jsonl").write_text("\n".join(lines) + "\n")
    assert run(["train", "--task", "pointmass", "--dataset", "d.jsonl", "--algo", algo,
                "--gradient-steps", "5", "--batch-size", "8", "--hidden", "8",
                "--eval-every", "0", "--out", "."]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: the reward of row 4, 1e+308, is not "
                                              "the point-mass reward")
    assert not os.path.exists(f"{algo}-summary.json")


def test_pointmass_rewards_within_the_tolerance_are_accepted(workdir):
    dataset = envs.load_dataset(str(DATA_DIR / "pointmass-mixture-20.jsonl"))
    rewards = dataset.rewards + 0.5 * cli.POINTMASS_REWARD_TOL
    envs.save_dataset(dataclasses.replace(dataset, rewards=rewards), "d.jsonl")
    assert run(["train", "--task", "pointmass", "--dataset", "d.jsonl", "--algo", "bc",
                "--gradient-steps", "2", "--batch-size", "8", "--hidden", "8",
                "--eval-every", "0", "--out", "."]) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["--dataset", "d.jsonl", "--algo", "bc", "--batch-size", "abc"],
    ["--algo", "bc"],
    ["--dataset", "d.jsonl", "--algo", "sac"],
], ids=["batch-size-not-int", "no-dataset", "unknown-algo"])
def test_bad_command_line_is_usage_error(workdir, capsys, argv):
    assert run(["train", "--task", "pointmass", *argv, "--out", "."]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: bprlab train: ") and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        run(["train", "--help"])
    assert info.value.code == 0 and "--dataset" in capsys.readouterr().out


def test_dataset_path_that_is_a_directory_is_usage_error(workdir, capsys):
    (workdir / "d.jsonl").mkdir()
    assert run(["train", "--task", "pointmass", "--dataset", "d.jsonl", "--algo", "bc",
                "--out", "."]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


class TestAudit:
    def test_clean_audit_exits_zero(self, capsys):
        assert run(["audit", "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and report["tvd_bound_violations"] == 0

    def test_perturbed_audit_exits_three(self, capsys):
        assert run(["audit", "--perturb-reward", "0.5"]) == EXIT_AUDIT
        err = capsys.readouterr().err
        assert "audit_failed" in err

    def test_violated_tvd_bounds_are_counted_and_exit_three(self, capsys, monkeypatch):
        # with no occupancy the bound is 0, below every nonzero gap
        monkeypatch.setattr(analysis, "_occupancy", lambda mdp, policy: np.zeros(mdp.n_states))
        assert run(["audit", "--json"]) == EXIT_AUDIT
        assert json.loads(capsys.readouterr().err) == {
            "audit_failed": True, "detail": "TVD bound violated in 100 instances"}


class TestReport:
    def test_comparison_table(self, workdir):
        run(["gen-data", "--task", "pointmass", "--n", "150", "--name", "d.jsonl", "--out", "."])
        for label in ("one", "two"):
            run(["train", "--task", "pointmass", "--dataset", "d.jsonl",
                 "--algo", "bc", "--seeds", "0", "--gradient-steps", "20",
                 "--batch-size", "32", "--hidden", "8", "--label", label, "--out", "."])
        assert run(["report", "one-summary.json", "two-summary.json", "--out", "."]) == EXIT_OK
        md = open("comparison.md").read()
        assert "| one |" in md and "| two |" in md
        csv_text = open("comparison.csv").read()
        assert csv_text.startswith("variant,")

    def test_mixed_tasks_rejected(self, workdir):
        json.dump({"task": "pointmass", "label": "a", "seeds": [0], "per_seed": [],
                   "aggregate": {"mean": 0, "std": 0, "iqm": 0}}, open("a.json", "w"))
        json.dump({"task": "gridworld", "label": "b", "seeds": [0], "per_seed": [],
                   "aggregate": {"mean": 0, "std": 0, "iqm": 0}}, open("b.json", "w"))
        assert run(["report", "a.json", "b.json", "--out", "."]) == EXIT_USAGE

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps({"label": "a", "seeds": [0], "per_seed": [],
                    "aggregate": {"mean": 0, "std": 0, "iqm": 0}}),
        json.dumps({"task": "pointmass", "label": "a", "seeds": 1, "per_seed": [],
                    "aggregate": {"mean": "high", "std": 0, "iqm": 0}}),
    ], ids=["not-json", "no-task", "wrong-types"])
    def test_malformed_summary_is_usage_error(self, workdir, capsys, text):
        (workdir / "s.json").write_text(text)
        assert run(["report", "s.json", "--out", "."]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_trace_is_usage_error(self, workdir, capsys):
        json.dump({"task": "pointmass", "label": "a", "seeds": [0],
                   "per_seed": [{"seed": 0, "trace_file": "t.csv"}],
                   "aggregate": {"mean": 0, "std": 0, "iqm": 0}}, open("s.json", "w"))
        (workdir / "t.csv").write_text("step,eval_return_mean\nx,1.0\n")
        assert run(["report", "s.json", "--out", "."]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_trace_that_is_not_utf8_is_usage_error(self, workdir, capsys):
        # its first byte once ended the report in a raw UnicodeDecodeError
        json.dump({"task": "pointmass", "label": "a", "seeds": [0],
                   "per_seed": [{"seed": 0, "trace_file": "t.csv"}],
                   "aggregate": {"mean": 0, "std": 0, "iqm": 0}}, open("s.json", "w"))
        (workdir / "t.csv").write_bytes(b"\xffstep,eval_return_mean\n1,1.0\n")
        assert run(["report", "s.json", "--out", "."]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: trace ") and "t.csv" in err and err.count("\n") == 1
        assert not os.path.exists("comparison.md")

    def test_missing_trace_is_usage_error(self, workdir, capsys):
        json.dump({"task": "pointmass", "label": "a", "seeds": [0],
                   "per_seed": [{"seed": 0, "trace_file": "missing.csv"}],
                   "aggregate": {"mean": 0, "std": 0, "iqm": 0}}, open("s.json", "w"))
        assert run(["report", "s.json", "--out", "."]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.csv" in err

    def test_curve_csv_from_traces(self, workdir):
        run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl", "--out", "."])
        run(["train", "--task", "pointmass", "--dataset", "d.jsonl",
             "--algo", "td3bc", "--seeds", "0,1", "--gradient-steps", "40",
             "--batch-size", "32", "--hidden", "8", "--eval-every", "20",
             "--label", "tdr", "--out", "."])
        run(["report", "tdr-summary.json", "--out", "."])
        lines = open("tdr-curve.csv").read().splitlines()
        assert lines[0] == "step,mean,std"
        assert len(lines) == 3  # evals at steps 20 and 40


# Numeric flag values stay small where they size an array: a width or batch in
# the millions would only test the machine's memory.
_SMALL = st.integers(-3, 16)
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_FUZZED_VALUES = {
    "train": {"--gradient-steps": st.integers(-2, 3), "--batch-size": _SMALL,
              "--seeds": st.integers(-1, 2), "--gamma": _ANY_FLOAT,
              "--learning-rate": _ANY_FLOAT, "--n-wedge": _ANY_FLOAT, "--cql-alpha": _ANY_FLOAT,
              "--eval-every": st.integers(-3, 4), "--threshold": _ANY_FLOAT,
              "--probe-ed": st.integers(-2, 3)},
    "pretrain": {"--steps": st.integers(-2, 3), "--batch-size": _SMALL,
                 "--seed": st.integers(-2, 3), "--repr-dim": _SMALL,
                 "--learning-rate": _ANY_FLOAT},
}


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZED_VALUES)))
    if command == "train":
        algo = draw(st.sampled_from(["bc", "td3bc", "cql"]))
        argv = ["train", "--task", "pointmass", "--algo", algo, "--gradient-steps", "3"]
    else:
        argv = ["pretrain", "--steps", "3"]
    values = _FUZZED_VALUES[command]
    # flag=value, so that argparse reads "-inf" as a value; a later flag wins
    for flag in draw(st.lists(st.sampled_from(sorted(values)), unique=True)):
        argv.append(f"{flag}={draw(values[flag])}")
    if draw(st.booleans()):
        argv += ["--hidden", *map(str, draw(st.lists(_SMALL, min_size=1, max_size=3)))]
    return argv


@pytest.fixture(scope="module")
def pointmass_200(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    assert run(["gen-data", "--task", "pointmass", "--n", "200", "--name", "d.jsonl",
                "--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflow must not warn
@settings(max_examples=100, deadline=None)
@given(argv=_fuzzed_argv())
@example(argv=["train", "--task", "pointmass", "--algo", "bc", "--gradient-steps", "3",
               "--batch-size=-1"])
@example(argv=["train", "--task", "pointmass", "--algo", "td3bc", "--gradient-steps", "3",
               "--hidden", "-3"])
@example(argv=["train", "--task", "pointmass", "--algo", "bc", "--gradient-steps", "3",
               "--probe-ed=5"])
@example(argv=["pretrain", "--steps", "3", "--hidden", "-2"])
@example(argv=["train", "--task", "pointmass", "--algo", "td3bc", "--gradient-steps", "3",
               "--gamma=1.5"])
@example(argv=["train", "--task", "pointmass", "--algo", "cql", "--gradient-steps", "3",
               "--gamma=-1.0"])
@example(argv=["train", "--task", "pointmass", "--algo", "bc", "--gradient-steps", "3",
               "--gamma=nan"])
def test_fuzzed_numeric_flags_exit_0_1_or_2_and_never_raise(pointmass_200, argv):
    out = tempfile.mkdtemp(dir=pointmass_200)  # this run's files only
    code = run([*argv, "--dataset", str(pointmass_200 / "d.jsonl"), "--out", out])
    assert code in (0, 1, 2)
    gamma = [float(a.partition("=")[2]) for a in argv if a.startswith("--gamma=")]
    if gamma and not 0.0 <= gamma[0] <= 1.0:
        assert code == 1
    if code == 0:
        for name in os.listdir(out):
            if name.endswith(".json"):
                strict_json(Path(out, name).read_text())


# Byte-mutated inputs: one to three bytes of a pinned dataset file or of a config
# file are replaced or deleted. The size flags stay on the command line, so that a
# mutation cannot ask for thousands of steps or a huge net.
_SMALL_TRAIN = ["--gradient-steps", "2", "--batch-size", "16", "--hidden", "8",
                "--eval-every", "0"]
_SMALL_PRETRAIN = ["pretrain", "--steps", "1", "--batch-size", "16", "--hidden", "8"]
_FUZZ_CONFIGS = {
    "train": {"learning-rate": 0.001, "gamma": 0.9, "cql-alpha": 1.0, "n-wedge": 5.0,
              "seeds": "0,1", "threshold": -50.0, "label": "fz"},
    "pretrain": {"learning-rate": 0.001, "seed": 0, "repr-dim": 4},
}
_MUTATION = st.tuples(st.integers(0, 2**16), st.one_of(  # None deletes the byte
    st.none(), st.sampled_from(b"0123456789"), st.sampled_from(b'-+.eE"[]{},: \nNIt'),
    st.integers(0, 255)))


@st.composite
def _mutated_run(draw):
    """(name of the file to mutate, its bytes, argv with that file as ./<name>)."""
    target = draw(st.sampled_from(["gridworld", "pointmass", "config"]))
    if target == "gridworld":
        name = "gridworld-eps0.3-50.jsonl"
        algo = draw(st.sampled_from(["spibb", "cql"]))
        argv = ["train", "--task", "gridworld", "--algo", algo, *_SMALL_TRAIN,
                "--probe-bounds"]
    elif draw(st.booleans()):
        name = "pointmass-mixture-20.jsonl"
        algo = draw(st.sampled_from(["bc", "td3bc", "cql"]))
        argv = ["train", "--task", "pointmass", "--algo", algo, *_SMALL_TRAIN,
                *([] if algo == "bc" else ["--probe-ed", "1"])]
    else:
        name, argv = "pointmass-mixture-20.jsonl", list(_SMALL_PRETRAIN)
    if target == "config":
        argv += ["--dataset", str(DATA_DIR / name), "--config", "./cfg.json"]
        name, data = "cfg.json", json.dumps(_FUZZ_CONFIGS[argv[0]]).encode()
    else:
        argv += ["--dataset", f"./{name}"]
        data = (DATA_DIR / name).read_bytes()
    data = bytearray(data)
    for pos, byte in draw(st.lists(_MUTATION, min_size=1, max_size=3)):
        pos %= len(data)
        if byte is None:
            del data[pos]
        else:
            data[pos] = byte
    return name, bytes(data), argv


@pytest.mark.filterwarnings("error::RuntimeWarning")  # an overflow must not warn
@settings(max_examples=60, deadline=None)
@given(case=_mutated_run())
# a NUL byte in a path-forming string once escaped os.replace as a raw ValueError
@example(case=("cfg.json", b'{"label": "f\\u0000z"}',
               ["train", "--task", "pointmass", "--algo", "bc", *_SMALL_TRAIN,
                "--dataset", str(DATA_DIR / "pointmass-mixture-20.jsonl"),
                "--config", "./cfg.json"]))
@example(case=("cfg.json", b'{"name": "\\u0000"}',
               [*_SMALL_PRETRAIN, "--dataset", str(DATA_DIR / "pointmass-mixture-20.jsonl"),
                "--config", "./cfg.json"]))
def test_byte_mutated_dataset_or_config_exits_0_1_or_2_and_never_raises(tmp_path_factory, case):
    name, data, argv = case
    out = tmp_path_factory.mktemp("mutated")  # this run's files only
    (out / name).write_bytes(data)
    cwd, err = os.getcwd(), io.StringIO()
    os.chdir(out)
    try:
        with contextlib.redirect_stderr(err):
            code = run([*argv, "--out", "."])
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    written = set(os.listdir(out)) - {name}
    if code == 0:
        for json_file in (n for n in written if n.endswith(".json")):
            strict_json((out / json_file).read_text())
    else:  # one error line, and no summary or checkpoint
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
        assert not any(n.endswith(("-summary.json", ".ckpt")) for n in written), written
