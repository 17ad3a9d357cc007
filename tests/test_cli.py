"""End-to-end CLI behavior at tiny scale: commands, files, exit codes."""

import base64
import errno
import hashlib
import json
import os

import numpy as np
import pytest

from reranklab import cli, ir_eval, train as train_mod
from reranklab.checkpoint import CheckpointError, load_checkpoint, parse_checkpoint, save_checkpoint
from reranklab.ir_eval import read_qrels, read_run
from reranklab.model import CrossEncoderConfig, Vocab, init_params
from reranklab.optim import AdamW, Lion
from reranklab.synth import SynthConfig
from reranklab.tensor import Tensor
from reranklab.train import NonFiniteLossError, TrainConfig, load_triplets

import oracles


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert run_cli("synthetic-data", "--out", out, "--triplets", "12", "--eval-queries", "2",
                   "--candidates", "4", "--relevant", "2") == 0
    return out


def write_config(tmp_path, synth_dir, extra=""):
    path = tmp_path / "run.ini"
    path.write_text(
        f"""[run]
name = toy
seed = 12
out_dir = {tmp_path / 'out'}

[data]
triplets = {synth_dir / 'triplets.tsv'}

[model]
d_model = 16
n_heads = 2
d_ff = 32
max_len = 16

[train]
optimizer = lion
base_lr = 2e-4
batch_size = 16
{extra}""",
        encoding="utf-8",
    )
    return path


class TestSyntheticData:
    def test_files_exist_and_parse(self, synth_dir):
        triplets = load_triplets(synth_dir / "triplets.tsv")
        assert len(triplets) == 12
        qrels = read_qrels(synth_dir / "qrels.txt")
        run = read_run(synth_dir / "candidates.run")
        assert sum(map(len, run.values())) == 2 * 4
        assert sum(map(len, qrels.values())) == 2 * 4

    def test_manifest_lists_every_artifact(self, synth_dir):
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        produced = sorted(p.name for p in synth_dir.iterdir() if p.name != "manifest.json")
        assert manifest["artifacts"] == produced

    def test_deterministic_for_seed(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert run_cli("synthetic-data", "--out", out, "--triplets", "5") == 0
            outs.append((out / "triplets.tsv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ((), {"seed": 12, "vocab_size": 100, "n_triplets": 1000, "n_eval_queries": 20,
                  "n_candidates": 50, "n_relevant": 5, "query_len": 3, "marker_repeats": 3}),
            (("--seed", 7, "--vocab-size", 300, "--triplets", 4, "--eval-queries", 2, "--candidates", 9,
              "--relevant", 3, "--query-len", 4, "--marker-repeats", 2),
             {"seed": 7, "vocab_size": 300, "n_triplets": 4, "n_eval_queries": 2,
              "n_candidates": 9, "n_relevant": 3, "query_len": 4, "marker_repeats": 2}),
        ],
        ids=["defaults", "every-flag"],
    )
    def test_flags_reach_their_synth_config_fields(self, tmp_path, flags, expected):
        out = tmp_path / "data"
        assert run_cli("synthetic-data", "--out", out, *flags) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["synth"] == expected
        assert manifest["seed"] == expected["seed"]
        if not flags:
            assert expected == vars(SynthConfig())

    @pytest.mark.parametrize(
        "flag, value, field, low",
        [("--triplets", -5, "n_triplets", 0), ("--eval-queries", -3, "n_eval_queries", 0),
         ("--candidates", -1, "n_candidates", 1), ("--candidates", 0, "n_candidates", 1),
         ("--query-len", 0, "query_len", 1),
         ("--marker-repeats", 0, "marker_repeats", 1), ("--seed", -1, "seed", 0)],
    )
    def test_out_of_range_size_exits_2_naming_the_flag(self, tmp_path, capsys, flag, value, field, low):
        out = tmp_path / "data"
        assert run_cli("synthetic-data", "--out", out, flag, value) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {flag}: {field} must be >= {low}, got {value}\n"
        assert not out.exists()

    def test_help_lists_flags_and_metavars(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("synthetic-data", "--help")
        assert info.value.code == 0
        options = [line.split() for line in capsys.readouterr().out.splitlines() if line.startswith("  --")]
        assert options == [
            ["--out", "OUT"], ["--seed", "SEED"], ["--vocab-size", "VOCAB_SIZE"], ["--triplets", "TRIPLETS"],
            ["--eval-queries", "EVAL_QUERIES"], ["--candidates", "CANDIDATES"], ["--relevant", "RELEVANT"],
            ["--query-len", "QUERY_LEN"], ["--marker-repeats", "MARKER_REPEATS"],
        ]


class TestTrain:
    def test_minimal_config_writes_three_checkpoints(self, tmp_path, synth_dir, capsys):
        config = write_config(tmp_path, synth_dir)
        assert run_cli("train", "--config", config) == 0
        out = tmp_path / "out"
        checkpoints = sorted(p.name for p in out.glob("*.ckpt"))
        assert checkpoints == [f"toy-lion-epoch{k}.ckpt" for k in (1, 2, 3)]
        assert (out / "loss-lion.tsv").exists()
        assert (out / "stats-lion.txt").exists()

    def test_manifest_matches_directory_scan(self, tmp_path, synth_dir):
        config = write_config(tmp_path, synth_dir)
        assert run_cli("train", "--config", config) == 0
        out = tmp_path / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        produced = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert manifest["artifacts"] == produced
        assert manifest["seed"] == 12

    def test_identical_runs_identical_bytes(self, tmp_path, synth_dir):
        blobs = []
        for sub in ("run1", "run2"):
            config = write_config(tmp_path, synth_dir)
            out = tmp_path / sub
            assert run_cli("train", "--config", config, "--out", out) == 0
            blobs.append(
                {
                    p.name: p.read_bytes()
                    for p in out.iterdir()
                    if p.suffix in (".ckpt", ".tsv")
                }
            )
        assert blobs[0] == blobs[1]

    def test_optimizer_sections_trigger_two_runs(self, tmp_path, synth_dir):
        config = write_config(tmp_path, synth_dir, extra="\n[lion]\n\n[adamw]\n")
        assert run_cli("train", "--config", config) == 0
        out = tmp_path / "out"
        assert (out / "loss-lion.tsv").exists()
        assert (out / "loss-adamw.tsv").exists()
        assert (out / "stats-adamw.txt").exists()
        assert len(list(out.glob("*.ckpt"))) == 6

    def test_epochs_flag_wins_over_optimizer_section(self, tmp_path, synth_dir):
        config = write_config(tmp_path, synth_dir, extra="\n[lion]\nepochs = 3\n")
        assert run_cli("train", "--config", config, "--epochs", 1) == 0
        out = tmp_path / "out"
        epochs = {line.split("\t")[1] for line in (out / "loss-lion.tsv").read_text().splitlines()}
        assert epochs == {"1"}
        assert [p.name for p in out.glob("*.ckpt")] == ["toy-lion-epoch1.ckpt"]

    def test_epochs_flag_below_one_names_the_flag(self, tmp_path, synth_dir, capsys):
        config = write_config(tmp_path, synth_dir)
        assert run_cli("train", "--config", config, "--epochs", 0) == cli.EXIT_CONFIG
        assert "--epochs: expected a positive integer, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_config_error(self, tmp_path):
        assert run_cli("train", "--config", tmp_path / "nope.ini") == cli.EXIT_CONFIG

    def test_missing_triplets_is_config_error(self, tmp_path, synth_dir):
        config = write_config(tmp_path, synth_dir)
        (synth_dir / "triplets.tsv").unlink()
        assert run_cli("train", "--config", config) == cli.EXIT_CONFIG

    def test_non_finite_loss_exit_code(self, tmp_path, synth_dir, monkeypatch):
        config = write_config(tmp_path, synth_dir)

        def explode(*args, **kwargs):
            raise NonFiniteLossError(5, float("nan"))

        monkeypatch.setattr(cli, "run_training", explode)
        assert run_cli("train", "--config", config) == cli.EXIT_NUMERIC

    def test_unwritable_checkpoint_is_config_error(self, tmp_path, synth_dir, capsys):
        config = write_config(tmp_path, synth_dir)
        blocker = tmp_path / "out" / "toy-lion-epoch1.ckpt"
        blocker.mkdir(parents=True)
        assert run_cli("train", "--config", config) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(blocker) in err
        # it failed as epoch 1 ended: nothing after that checkpoint was written
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["toy-lion-epoch1.ckpt"]

    def test_undeletable_manifest_is_config_error(self, tmp_path, synth_dir, capsys):
        config = write_config(tmp_path, synth_dir)
        blocker = tmp_path / "out" / "manifest.json"
        blocker.mkdir(parents=True)
        assert run_cli("train", "--config", config) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(blocker) in err
        # the old manifest is deleted before the first run writes a file
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize(
        "optimizer, earlier",
        [("lion", False), ("adamw", False), ("lion", True), ("adamw", True)],
        ids=["lion", "adamw", "lion-over-a-finished-run", "adamw-over-a-finished-run"],
    )
    def test_non_finite_loss_in_epoch_3_keeps_epochs_1_and_2(self, tmp_path, synth_dir, monkeypatch, optimizer, earlier):
        config = write_config(tmp_path, synth_dir)  # 24 pairs at batch 16: 2 steps per epoch, 3 epochs
        flags = ["--optimizer", optimizer, "--seed", "13"]
        assert run_cli("train", "--config", config, *flags, "--out", tmp_path / "whole") == 0
        out = tmp_path / "out"
        if earlier:  # a finished seed-12 run in the same directory; its epoch 3 and stats stay, its manifest goes
            assert run_cli("train", "--config", config, "--optimizer", optimizer) == 0
        calls = []
        loss = train_mod.bce_loss

        def nan_at_epoch_3(y_hat, y):
            calls.append(None)
            return Tensor(np.nan) if len(calls) == 5 else loss(y_hat, y)  # step 4, the first of epoch 3

        monkeypatch.setattr(train_mod, "bce_loss", nan_at_epoch_3)
        assert run_cli("train", "--config", config, *flags) == cli.EXIT_NUMERIC
        names = [f"toy-{optimizer}-epoch{k}.ckpt" for k in (1, 2)]
        stale = [f"toy-{optimizer}-epoch3.ckpt", f"stats-{optimizer}.txt"] if earlier else []
        assert sorted(p.name for p in out.iterdir()) == sorted(names + [f"loss-{optimizer}.tsv"] + stale)
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()
        whole_log = (tmp_path / "whole" / f"loss-{optimizer}.tsv").read_text().splitlines()
        assert (out / f"loss-{optimizer}.tsv").read_text().splitlines() == whole_log[:4]
        assert {line.split("\t")[1] for line in whole_log[:4]} == {"1", "2"}

    def test_out_root_env_var(self, tmp_path, synth_dir, monkeypatch):
        config = write_config(tmp_path, synth_dir)
        monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path / "root"))
        assert run_cli("train", "--config", config, "--out", "rel") == 0
        assert (tmp_path / "root" / "rel" / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["train", "bench-optim"])
    def test_triplets_read_once_for_both_optimizers(self, tmp_path, synth_dir, monkeypatch, command):
        config = write_config(tmp_path, synth_dir, extra="epochs = 1\n\n[lion]\n\n[adamw]\n")
        calls = []
        read = train_mod.load_triplets
        monkeypatch.setattr(train_mod, "load_triplets", lambda path: calls.append(path) or read(path))
        assert run_cli(command, "--config", config) == 0
        assert len(list((tmp_path / "out").glob("loss-*.tsv"))) == 2
        assert len(calls) == 1

    @pytest.mark.parametrize("where", ["--name", "[run] name"])
    @pytest.mark.parametrize("name", ["a/b", "my run", "tab\there", ""])
    def test_bad_run_name_is_config_error(self, tmp_path, synth_dir, capsys, where, name):
        config = write_config(tmp_path, synth_dir)
        if where == "--name":
            # checked before any file is read: this config does not exist
            argv = ["train", "--config", tmp_path / "missing.ini", "--name", name]
        else:
            config.write_text(config.read_text().replace("name = toy\n", f"name = {name}\n"), encoding="utf-8")
            argv = ["train", "--config", config]
        assert run_cli(*argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{where}: expected a non-empty run name without whitespace or '/', got {name!r}" in err
        assert not (tmp_path / "out").exists()

    def test_config_stem_as_run_name_is_checked(self, tmp_path, synth_dir, capsys):
        config = write_config(tmp_path, synth_dir)
        spaced = tmp_path / "my run.ini"
        spaced.write_text(config.read_text().replace("name = toy\n", ""), encoding="utf-8")
        assert run_cli("train", "--config", spaced) == cli.EXIT_CONFIG
        assert "run name (the config file stem): expected a non-empty run name" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfigValidation:
    TRAIN_KEYS = {"batch_size", "epochs", "base_lr", "schedule", "warmup_ratio", "shuffle", "weight_decay"}

    def test_accepted_keys_are_pinned(self):
        assert cli._INI_KEYS == {
            "run": {"name", "seed", "out_dir"},
            "data": {"triplets"},
            "model": {"d_model", "n_layers", "n_heads", "d_ff", "max_len"},
            "train": self.TRAIN_KEYS | {"optimizer"},
            "lion": self.TRAIN_KEYS,
            "adamw": self.TRAIN_KEYS,
        }

    @pytest.mark.parametrize("section", ["train", "lion", "adamw"])
    def test_every_key_reaches_its_field(self, tmp_path, synth_dir, monkeypatch, section):
        model = {"d_model": 24, "n_layers": 3, "n_heads": 3, "d_ff": 40, "max_len": 12}
        train = {"batch_size": 5, "epochs": 2, "base_lr": 3e-3, "schedule": "cosine",
                 "warmup_ratio": 0.25, "shuffle": False, "weight_decay": 0.03}
        defaults = CrossEncoderConfig(vocab_size=10), TrainConfig()
        assert all(getattr(defaults[0], k) != v for k, v in model.items())
        assert all(getattr(defaults[1], k) != v for k, v in train.items())
        assert set(train) == self.TRAIN_KEYS
        optimizer = "adamw" if section == "train" else section  # adamw is not the default optimizer

        def ini(values):
            return "".join(f"{k} = {v}\n" for k, v in values.items())

        # a section selecting the optimizer overrides [train]
        below = "" if section == "train" else f"[train]\n{ini(dict.fromkeys(train, 'invalid'))}\n"
        path = tmp_path / "run.ini"
        path.write_text(
            f"[run]\nseed = 7\nout_dir = {tmp_path / 'out'}\n\n[data]\ntriplets = {synth_dir / 'triplets.tsv'}\n\n"
            f"[model]\n{ini(model)}\n{below}[{section}]\n{ini(train)}"
            + ("optimizer = adamw\n" if section == "train" else ""),
            encoding="utf-8",
        )

        class Stop(Exception):
            pass

        seen = {}

        def capture(model, vocab, pairs, config, out_dir, run_name):
            seen.update(model=model.config, train=config)
            raise Stop

        monkeypatch.setattr(cli, "run_training", capture)
        with pytest.raises(Stop):
            run_cli("train", "--config", path)
        assert {k: getattr(seen["model"], k) for k in model} == model
        assert {k: getattr(seen["train"], k) for k in train} == train
        assert seen["train"].optimizer == optimizer
        assert seen["train"].seed == seen["model"].seed == 7

    def test_every_documented_key_accepted(self, tmp_path, synth_dir):
        extra = (
            "epochs = 1\nschedule = cosine\nwarmup_ratio = 0.1\nshuffle = off\nweight_decay = 0.02\n"
            "\n[lion]\nbatch_size = 8\nbase_lr = 1e-4\n"
        )
        config = write_config(tmp_path, synth_dir, extra=extra)
        text = config.read_text().replace("[model]\n", "[model]\nn_layers = 1\n")
        config.write_text(text, encoding="utf-8")
        assert run_cli("train", "--config", config) == 0
        rows = (tmp_path / "out" / "loss-lion.tsv").read_text().splitlines()
        assert len(rows) == 3  # 24 pairs at the [lion] batch size of 8

    @pytest.mark.parametrize(
        "extra, named",
        [
            ("batch_szie = 8\n", "[train] batch_szie"),
            ("shuffle = maybe\n", "[train] shuffle"),
            ("\n[adamw]\nshuffle = 2\n", "[adamw] shuffle"),
            ("\n[lion]\noptimizer = adamw\n", "[lion] optimizer"),
            ("\n[trian]\nepochs = 1\n", "[trian]"),
            ("epochs = many\n", "[train] epochs"),
        ],
    )
    def test_bad_key_or_value_is_config_error(self, tmp_path, synth_dir, capsys, extra, named):
        config = write_config(tmp_path, synth_dir, extra=extra)
        assert run_cli("train", "--config", config) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out" / "loss-lion.tsv").exists()


    @pytest.mark.parametrize("command", ["train", "bench-optim"])
    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("seed = 12\n", "seed = x\n", "[run] seed"),
            ("d_model = 16\n", "d_model = 6x4\n", "[model] d_model"),
            ("n_heads = 2\n", "n_heads = 3\n", "[model] d_model 16 not divisible by n_heads 3"),
            ("max_len = 16\n", "max_len = 4\n", "[model] max_len must be >= 8, got 4"),
        ],
    )
    def test_bad_run_or_model_integer_is_config_error(
        self, tmp_path, synth_dir, capsys, command, old, new, named
    ):
        config = write_config(tmp_path, synth_dir)
        config.write_text(config.read_text().replace(old, new), encoding="utf-8")
        assert run_cli(command, "--config", config) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "bench-optim"])
    @pytest.mark.parametrize(
        "extra, named",
        [
            ("base_lr = -1\n", "[train] base_lr"),
            ("weight_decay = -0.5\n", "[train] weight_decay"),
            ("schedule = cosine\nwarmup_ratio = 1.5\n", "[train] warmup_ratio"),
            ("schedule = linear\n", "[train] schedule"),
            ("\n[lion]\nbase_lr = -1\n", "[lion] base_lr"),
        ],
    )
    def test_bad_train_value_is_config_error(self, tmp_path, synth_dir, capsys, command, extra, named):
        config = write_config(tmp_path, synth_dir, extra=extra)
        # the default base_lr is the same 2e-4, so extra may set it again
        config.write_text(config.read_text().replace("base_lr = 2e-4\n", "", 1), encoding="utf-8")
        assert run_cli(command, "--config", config) == cli.EXIT_CONFIG
        assert named in capsys.readouterr().err
        # checked before any run trains: bench-optim trains AdamW before Lion
        assert not list((tmp_path / "out").glob("loss-*.tsv"))

    @pytest.mark.parametrize("section", ["train", "lion"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", ["base_lr", "weight_decay"])
    def test_non_finite_rate_is_config_error(self, tmp_path, synth_dir, capsys, key, value, section):
        config = write_config(tmp_path, synth_dir)
        assert run_cli("train", "--config", config, "--epochs", "1") == cli.EXIT_OK
        manifest = (tmp_path / "out" / "manifest.json").read_bytes()
        extra = f"{key} = {value}\n" if section == "train" else f"\n[lion]\n{key} = {value}\n"
        config = write_config(tmp_path, synth_dir, extra=extra)
        # the default base_lr is the same 2e-4, so extra may set it again
        config.write_text(config.read_text().replace("base_lr = 2e-4\n", "", 1), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("train", "--config", config) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: [{section}] {key} must be ")
        assert (tmp_path / "out" / "manifest.json").read_bytes() == manifest

    @pytest.mark.parametrize("command", ["train", "bench-optim"])
    @pytest.mark.parametrize("where, named", [("flag", "--seed"), ("config", "[run] seed")])
    def test_negative_seed_is_config_error(self, tmp_path, synth_dir, capsys, command, where, named):
        config = write_config(tmp_path, synth_dir)
        argv = [command, "--config", config]
        if where == "flag":
            argv += ["--seed", "-3"]
        else:
            config.write_text(config.read_text().replace("seed = 12\n", "seed = -3\n"), encoding="utf-8")
        assert run_cli(*argv) == cli.EXIT_CONFIG
        assert f"{named}: expected a non-negative integer" in capsys.readouterr().err


@pytest.fixture
def trained(tmp_path, synth_dir):
    config = write_config(tmp_path, synth_dir)
    assert run_cli("train", "--config", config) == 0
    return tmp_path / "out" / "toy-lion-epoch3.ckpt"


class TestRerank:
    def test_reranks_candidates(self, tmp_path, synth_dir, trained):
        out_run = tmp_path / "reranked.run"
        assert (
            run_cli(
                "rerank",
                "--checkpoint", trained,
                "--queries", synth_dir / "queries.tsv",
                "--passages", synth_dir / "passages.tsv",
                "--candidates", synth_dir / "candidates.run",
                "--out", out_run,
            )
            == 0
        )
        lines = [line.split() for line in out_run.read_text(encoding="utf-8").splitlines()]
        original = read_run(synth_dir / "candidates.run")
        assert len(lines) == sum(map(len, original.values()))
        for qid, pairs in original.items():
            got = sorted(fields[2] for fields in lines if fields[0] == qid)
            expected = sorted(docid for _, docid in pairs)
            assert got == expected
            ranks = sorted(int(fields[3]) for fields in lines if fields[0] == qid)
            assert ranks == list(range(1, len(ranks) + 1))

    def test_tag_defaults_to_checkpoint_stem(self, tmp_path, synth_dir, trained):
        out_run = tmp_path / "reranked.run"
        run_cli(
            "rerank",
            "--checkpoint", trained,
            "--queries", synth_dir / "queries.tsv",
            "--passages", synth_dir / "passages.tsv",
            "--candidates", synth_dir / "candidates.run",
            "--out", out_run,
        )
        lines = out_run.read_text(encoding="utf-8").splitlines()
        assert lines and all(line.split()[5] == "toy-lion-epoch3" for line in lines)

    @pytest.mark.parametrize("tag", ["my run", "", "tab\there"])
    def test_tag_with_whitespace_is_config_error(self, tmp_path, capsys, tag):
        # checked before any file is read: none of these exist
        code = run_cli(
            "rerank",
            "--checkpoint", tmp_path / "toy.ckpt",
            "--queries", tmp_path / "q.tsv",
            "--passages", tmp_path / "p.tsv",
            "--candidates", tmp_path / "c.run",
            "--out", tmp_path / "o.run",
            "--tag", tag,
        )
        assert code == cli.EXIT_CONFIG
        assert f"--tag: expected a non-empty run tag without whitespace, got {tag!r}" in capsys.readouterr().err

    def test_default_tag_with_whitespace_is_config_error(self, tmp_path, synth_dir, trained, capsys):
        spaced = tmp_path / "my ckpt.ckpt"
        spaced.write_bytes(trained.read_bytes())
        code = run_cli(
            "rerank",
            "--checkpoint", spaced,
            "--queries", synth_dir / "queries.tsv",
            "--passages", synth_dir / "passages.tsv",
            "--candidates", synth_dir / "candidates.run",
            "--out", tmp_path / "o.run",
        )
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--tag" in err and "'my ckpt'" in err
        assert not (tmp_path / "o.run").exists()

    def test_unresolvable_docid_exit_code(self, tmp_path, synth_dir, trained):
        bad = tmp_path / "bad.run"
        bad.write_text("q000 Q0 no-such-doc 1 1.000000 t\n", encoding="utf-8")
        code = run_cli(
            "rerank",
            "--checkpoint", trained,
            "--queries", synth_dir / "queries.tsv",
            "--passages", synth_dir / "passages.tsv",
            "--candidates", bad,
            "--out", tmp_path / "o.run",
        )
        assert code == cli.EXIT_PARSE

    @pytest.mark.parametrize(
        "corpus, text",
        [("queries.tsv", "q1\talpha\nq1\tbeta\n"), ("passages.tsv", "d1\tbeta\nd1\talpha\n")],
        ids=["queries", "passages"],
    )
    def test_duplicate_corpus_id_is_parse_error(self, tmp_path, tiny_checkpoint, capsys, corpus, text):
        out = tmp_path / "o.run"
        argv = TestReplacingWrites.rerank_argv(tmp_path, tiny_checkpoint[0], out)
        (tmp_path / corpus).write_text(text, encoding="utf-8")
        assert run_cli(*argv) == cli.EXIT_PARSE
        assert capsys.readouterr().err == f"input error: {tmp_path / corpus}: duplicate ids on lines [2]\n"
        assert not out.exists()

    def test_checkpoint_value_out_of_float_range_is_config_error(self, tmp_path, synth_dir, trained, capsys):
        bundle = load_checkpoint(trained)
        lines = oracles.v1_checkpoint_text(bundle.model, bundle.vocab, bundle.optimizer).splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith("[param ")) + 1
        lines[row] = " ".join(["0x1.0000000000000p+1024"] + lines[row].split()[1:])
        broken = tmp_path / "broken.ckpt"
        broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run_cli(
            "rerank",
            "--checkpoint", broken,
            "--queries", synth_dir / "queries.tsv",
            "--passages", synth_dir / "passages.tsv",
            "--candidates", synth_dir / "candidates.run",
            "--out", tmp_path / "o.run",
        )
        assert code == cli.EXIT_CONFIG
        name = lines[row - 1].partition("] ")[2]
        assert f"{name} row 0: value '0x1.0000000000000p+1024' is out of float range" in capsys.readouterr().err


def _insert_after(text, anchor, block):
    """``text`` with ``block`` inserted after the line that equals ``anchor``."""
    lines = text.splitlines()
    at = lines.index(anchor) + 1
    return "\n".join(lines[:at] + block + lines[at:]) + "\n"


def _repeat_array(text, name):
    """``text`` with the one-row block of array ``name`` written twice."""
    lines = text.splitlines()
    at = next(i for i, l in enumerate(lines) if l.endswith(f"] {name}"))
    return "\n".join(lines[: at + 2] + lines[at : at + 2] + lines[at + 2 :]) + "\n"


def _row_line(lines, name, row):
    """Index in ``lines`` of row ``row`` of array ``name``."""
    return next(i for i, l in enumerate(lines) if l.endswith(f"] {name}")) + 1 + row


def _edit_row(text, name, row, edit):
    """``text`` with row ``row`` of array ``name`` replaced by ``edit(line)``."""
    lines = text.splitlines()
    at = _row_line(lines, name, row)
    lines[at] = edit(lines[at])
    return "\n".join(lines) + "\n"


def _drop_row(text, name, row):
    """``text`` without row ``row`` of array ``name``."""
    lines = text.splitlines()
    del lines[_row_line(lines, name, row)]
    return "\n".join(lines) + "\n"


def _cut_before_row(text, name, row):
    """``text`` cut off at the start of row ``row`` of array ``name``."""
    lines = text.splitlines()
    return "\n".join(lines[: _row_line(lines, name, row)]) + "\n"


def _set_value(line, col, value):
    """A v2 row line with the value in column ``col`` set to ``value``."""
    values = np.frombuffer(base64.b64decode(line), "<f8").copy()
    values[col] = value
    return base64.b64encode(values.tobytes()).decode("ascii")


@pytest.fixture
def tiny_checkpoint(tmp_path):
    """A Lion checkpoint of an untrained model, and its text."""
    vocab = Vocab(["alpha", "beta"])
    model = init_params(CrossEncoderConfig(vocab_size=vocab.size, d_model=8, n_heads=2, d_ff=16, max_len=8))
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(path, model, vocab, Lion(model.params))
    return path, path.read_text(encoding="utf-8")


class TestCheckpointNames:
    """A checkpoint name or key given twice, or one the format lacks, is a config error that names it.

    So is a corrupt row of an array, named by the array and the row.
    """

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda text: _repeat_array(text, "head.bias"), "head.bias: repeated [param] block"),
            (lambda text: _repeat_array(text, "m/head.bias"), "m/head.bias: repeated [state] block"),
            (lambda text: _insert_after(text, "[optimizer lion]", ["lr=0x1p-1"]), "[optimizer lion] lr: repeated key"),
            (lambda text: _insert_after(text, "[config]", ["seed=4"]), "[config] seed: repeated key"),
            (lambda text: _insert_after(text, "[config]", ["bogus=3"]), "[config] bogus: unknown key"),
            (lambda text: text.replace("\nseed=12\n", "\nseed=-1\n"), "[config] seed must be >= 0, got -1"),
            (lambda text: text.replace("[end]\n", "[optimizer lion]\n[end]\n"), "[optimizer lion]: a second optimizer section"),
            (lambda text: _edit_row(text, "token_embedding", 3, lambda l: l[:5] + "!" + l[5:]),
             "token_embedding row 3: malformed base64"),
            (lambda text: _edit_row(text, "token_embedding", 3, lambda l: l.replace("A", "é", 1)),
             "token_embedding row 3: malformed base64"),
            (lambda text: _edit_row(text, "token_embedding", 3,
                                    lambda l: base64.b64encode(base64.b64decode(l)[:-8]).decode("ascii")),
             "token_embedding row 3: 56 bytes, expected 64"),
            (lambda text: _cut_before_row(text, "token_embedding", 3), "token_embedding row 3: unexpected end of checkpoint"),
            (lambda text: _edit_row(text, "token_embedding", 4, lambda l: _set_value(l, 7, np.nan)),
             "token_embedding row 4, column 7: value 'nan' is not finite"),
            (lambda text: _edit_row(text, "m/layers.0.ff.w1", 5, lambda l: _set_value(l, 9, -np.inf)),
             "m/layers.0.ff.w1 row 5, column 9: value '-inf' is not finite"),
            (lambda text: _edit_row(text, "token_embedding", 5, lambda l: f"{l}\n{l}"),
             "token_embedding row 6: more rows than its dims 6x8"),
            (lambda text: _drop_row(text, "head.weight", 7), "head.weight row 7: unexpected [param 1] head.bias"),
            (lambda text: _drop_row(text, "m/head.bias", 0), "m/head.bias row 0: unexpected [end]"),
            # str.splitlines() would split the row at U+0085; a file's lines end at \n only
            (lambda text: _edit_row(text, "token_embedding", 3, lambda l: l[:8] + "\x85" + l[8:]),
             "token_embedding row 3: malformed base64"),
        ],
        ids=["param", "state", "optimizer-key", "config-key", "config-unknown", "config-seed", "optimizer-section",
             "base64-char", "non-ascii", "row-bytes", "truncated", "nan", "state-inf",
             "extra-row", "rows-missing", "rows-missing-at-end", "nel-in-row"],
    )
    def test_rerank_exits_2_naming_it(self, tmp_path, tiny_checkpoint, capsys, edit, named):
        _, text = tiny_checkpoint
        broken = tmp_path / "broken.ckpt"
        broken.write_text(edit(text), encoding="utf-8")
        for read in (lambda: parse_checkpoint(broken.read_text(encoding="utf-8")), lambda: load_checkpoint(broken)):
            with pytest.raises(CheckpointError) as info:
                read()
            assert str(info.value) == named
        code = run_cli(
            "rerank",
            "--checkpoint", broken,
            "--queries", tmp_path / "q.tsv",
            "--passages", tmp_path / "p.tsv",
            "--candidates", tmp_path / "c.run",
            "--out", tmp_path / "o.run",
        )
        assert code == cli.EXIT_CONFIG
        assert f"config error: {named}\n" in capsys.readouterr().err


class TestNegativeAdamwStep:
    @pytest.mark.parametrize("step", ["-1", "-2"])
    def test_rerank_exits_2_naming_it(self, tmp_path, capsys, step):
        vocab = Vocab(["alpha", "beta"])
        model = init_params(CrossEncoderConfig(vocab_size=vocab.size, d_model=8, n_heads=2, d_ff=16, max_len=8))
        path = tmp_path / "adamw.ckpt"
        save_checkpoint(path, model, vocab, AdamW(model.params))
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\nstep=0\n", f"\nstep={step}\n"), encoding="utf-8")
        named = f"[optimizer adamw] step: must be >= 0, got {step}"
        with pytest.raises(CheckpointError) as info:
            parse_checkpoint(path.read_text(encoding="utf-8"))
        assert str(info.value) == named
        code = run_cli(
            "rerank",
            "--checkpoint", path,
            "--queries", tmp_path / "q.tsv",
            "--passages", tmp_path / "p.tsv",
            "--candidates", tmp_path / "c.run",
            "--out", tmp_path / "o.run",
        )
        assert code == cli.EXIT_CONFIG
        assert f"config error: {named}\n" in capsys.readouterr().err


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any input file is an error that names the file."""

    GOOD = {
        "queries.tsv": "q1\talpha\n",
        "passages.tsv": "d1\tbeta\n",
        "run.txt": "q1 Q0 d1 1 1.0 t\n",
        "qrels.txt": "q1 0 d1 1\n",
        "means.tsv": "encoder-small\t33.09\t32.21\n",
        "triplets.tsv": "alpha\tbeta\tgamma\n",
        "stats.txt": "optimizer=lion\n",
    }

    @pytest.mark.parametrize(
        "bad, code",
        [
            ("run.ini", cli.EXIT_CONFIG),
            ("tiny.ckpt", cli.EXIT_CONFIG),
            ("queries.tsv", cli.EXIT_PARSE),
            ("passages.tsv", cli.EXIT_PARSE),
            ("run.txt", cli.EXIT_PARSE),
            ("qrels.txt", cli.EXIT_PARSE),
            ("triplets.tsv", cli.EXIT_PARSE),
            ("means.tsv", cli.EXIT_PARSE),
            ("stats.txt", cli.EXIT_PARSE),
        ],
    )
    def test_exit_code_names_the_file(self, tmp_path, tiny_checkpoint, capsys, bad, code):
        for name, text in self.GOOD.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        write_config(tmp_path, tmp_path)  # run.ini, training on tmp_path / "triplets.tsv"
        path = tmp_path / bad
        raw = path.read_bytes()
        path.write_bytes(raw[:5] + b"\xff" + raw[5:])
        f = {name: tmp_path / name for name in list(self.GOOD) + ["run.ini", "tiny.ckpt"]}
        if bad in ("run.ini", "triplets.tsv"):
            argv = ["train", "--config", f["run.ini"]]
        elif bad == "means.tsv":
            argv = ["bench-optim", "--import", f["means.tsv"]]
        elif bad == "stats.txt":
            argv = ["report", f["stats.txt"]]
        elif bad in ("run.txt", "qrels.txt"):
            argv = ["eval", "--run", f["run.txt"], "--qrels", f["qrels.txt"]]
        else:
            argv = ["rerank", "--checkpoint", f["tiny.ckpt"], "--queries", f["queries.tsv"],
                    "--passages", f["passages.tsv"], "--candidates", f["run.txt"], "--out", tmp_path / "o.run"]
        assert run_cli(*argv) == code
        assert f"{path}: not UTF-8 text (byte 0xff: invalid start byte)" in capsys.readouterr().err


class TestOutputDirectory:
    """An output directory that cannot be made is a config error naming the flag or key."""

    @pytest.mark.parametrize(
        "command", ["train", "train-config", "bench-optim", "bench-import", "rerank", "eval", "synthetic-data"]
    )
    def test_out_naming_a_file_is_config_error(self, tmp_path, tiny_checkpoint, capsys, command):
        for name, text in TestNonUtf8Input.GOOD.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        config = write_config(tmp_path, tmp_path)
        blocker = tmp_path / "out"  # [run] out_dir in the config
        blocker.write_text("a file\n", encoding="utf-8")
        argv, named = {
            "train": (["train", "--config", config, "--out", blocker], "--out"),
            "train-config": (["train", "--config", config], "[run] out_dir"),
            "bench-optim": (["bench-optim", "--config", config, "--out", blocker], "--out"),
            "bench-import": (["bench-optim", "--import", tmp_path / "means.tsv", "--out", blocker], "--out"),
            "rerank": (["rerank", "--checkpoint", tiny_checkpoint[0], "--queries", tmp_path / "queries.tsv",
                        "--passages", tmp_path / "passages.tsv", "--candidates", tmp_path / "run.txt",
                        "--out", blocker / "o.run"], "--out"),
            "eval": (["eval", "--run", tmp_path / "run.txt", "--qrels", tmp_path / "qrels.txt", "--out", blocker],
                     "--out"),
            "synthetic-data": (["synthetic-data", "--out", blocker, "--triplets", "2"], "--out"),
        }[command]
        assert run_cli(*argv) == cli.EXIT_CONFIG
        assert f"{named}: cannot create output directory {blocker}: " in capsys.readouterr().err


class TestRerankOutDirectory:
    def test_existing_directory_is_config_error_before_the_checkpoint_loads(self, tmp_path, capsys):
        out = tmp_path / "reranked.run"
        out.mkdir()
        code = run_cli(
            "rerank",
            "--checkpoint", tmp_path / "missing.ckpt",
            "--queries", tmp_path / "q.tsv",
            "--passages", tmp_path / "p.tsv",
            "--candidates", tmp_path / "c.run",
            "--out", out,
        )
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: --out: {out} is a directory; expected the path of the run file to write\n"
        )


class _FullDisk:
    """A text file whose first write stores half its text, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), self.fh.name)


class TestReplacingWrites:
    """Each output is written to ``<file>.tmp`` and renamed over the file, so it is complete or absent."""

    @staticmethod
    def rerank_argv(tmp_path, checkpoint, out):
        for name, text in TestNonUtf8Input.GOOD.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        return ["rerank", "--checkpoint", checkpoint, "--queries", tmp_path / "queries.tsv",
                "--passages", tmp_path / "passages.tsv", "--candidates", tmp_path / "run.txt", "--out", out]

    @pytest.mark.parametrize("command", ["rerank", "eval", "synthetic-data", "bench-import"])
    def test_failed_write_keeps_the_earlier_files(self, tmp_path, tiny_checkpoint, monkeypatch, capsys, command):
        out = tmp_path / "out"
        argv = {
            "rerank": self.rerank_argv(tmp_path, tiny_checkpoint[0], out / "o.run"),
            "eval": ["eval", "--run", tmp_path / "run.txt", "--qrels", tmp_path / "qrels.txt", "--out", out],
            "synthetic-data": ["synthetic-data", "--out", out, "--triplets", "4"],
            "bench-import": ["bench-optim", "--import", tmp_path / "means.tsv", "--out", out],
        }[command]
        assert run_cli(*argv) == cli.EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real_open = open

        def open_on_full_disk(path, mode="r", **kwargs):
            fh = real_open(path, mode, **kwargs)
            return _FullDisk(fh) if "w" in mode else fh

        monkeypatch.setattr(ir_eval, "open", open_on_full_disk, raising=False)
        assert run_cli(*argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: [Errno {errno.ENOSPC}] ") and ".tmp'" in err
        if command != "rerank":  # a directory command deletes its old manifest before its first write
            del before["manifest.json"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert not list(tmp_path.rglob("*.tmp"))

    def test_symlink_at_rerank_out_is_replaced(self, tmp_path, tiny_checkpoint):
        target, link = tmp_path / "target.run", tmp_path / "o.run"
        target.write_text("kept\n", encoding="utf-8")
        link.symlink_to(target)
        assert run_cli(*self.rerank_argv(tmp_path, tiny_checkpoint[0], link)) == cli.EXIT_OK
        assert not link.is_symlink() and link.read_text(encoding="utf-8").startswith("q1 Q0 d1 1 ")
        assert target.read_text(encoding="utf-8") == "kept\n"


class TestCommitRule:
    """A command that writes a directory checks its settings and inputs before it deletes the old manifest."""

    @pytest.mark.parametrize("command", ["train", "bench-optim", "bench-import", "eval", "synthetic-data"])
    def test_bad_setting_or_input_leaves_the_directory_as_it_was(self, tmp_path, synth_dir, command):
        for name, text in TestNonUtf8Input.GOOD.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        out = tmp_path / "out"  # [run] out_dir in the config
        config = write_config(tmp_path, synth_dir)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "run.txt").write_text("not a run line\n", encoding="utf-8")
        (bad / "means.tsv").write_text("encoder-small\t33.09\t32.21\nbroken\t0\t1.0\n", encoding="utf-8")
        # bench-optim trains AdamW first, so a bad [lion] value must stop it before that run
        for name, extra in (("train.ini", "warmup_ratio = 1.5\n"), ("bench.ini", "\n[lion]\nweight_decay = -1\n")):
            (bad / name).write_text(config.read_text(encoding="utf-8") + extra, encoding="utf-8")
        good_argv, bad_argv, code = {
            "train": (["train", "--config", config, "--epochs", "1"],
                      ["train", "--config", bad / "train.ini", "--epochs", "1"], cli.EXIT_CONFIG),
            "bench-optim": (["bench-optim", "--config", config],
                            ["bench-optim", "--config", bad / "bench.ini"], cli.EXIT_CONFIG),
            "bench-import": (["bench-optim", "--import", tmp_path / "means.tsv", "--out", out],
                             ["bench-optim", "--import", bad / "means.tsv", "--out", out], cli.EXIT_PARSE),
            "eval": (["eval", "--run", tmp_path / "run.txt", "--qrels", tmp_path / "qrels.txt", "--out", out],
                     ["eval", "--run", bad / "run.txt", "--qrels", tmp_path / "qrels.txt", "--out", out],
                     cli.EXIT_PARSE),
            "synthetic-data": (["synthetic-data", "--out", out, "--triplets", "4"],
                               ["synthetic-data", "--out", out, "--triplets", "4", "--candidates", "0"],
                               cli.EXIT_CONFIG),
        }[command]
        assert run_cli(*good_argv) == cli.EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "manifest.json" in before
        assert run_cli(*bad_argv) == code
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestEval:
    # sha256 of metrics.tsv for the seed-12 synthetic first-stage run
    # (200 queries x 100 candidates), fixed before the one-walk evaluation
    GOLDEN_TSV = {
        (): "2a83d4f9d447d2fe77c538dbaf0f0644606d5418e758e02715b904f204e2c7b1",
        ("--k", "5", "--binarize-at", "2"): "c1aae1122f608caeb4d6bfd5caa2dfce2fd9f54819b949695d846628e56eeb36",
        ("--k", "20", "--exponential-gain"): "89ba2ee0c90a69969354d3f050dbb88c2f2eaf2599a7fe063cc0c8154be0416f",
    }

    @pytest.mark.parametrize("flags", list(GOLDEN_TSV))
    def test_metrics_tsv_golden_digest(self, tmp_path, flags):
        data = tmp_path / "data"
        assert run_cli("synthetic-data", "--out", data, "--seed", "12", "--eval-queries", "200",
                       "--candidates", "100") == 0
        report_dir = tmp_path / "report"
        assert run_cli("eval", "--run", data / "candidates.run", "--qrels", data / "qrels.txt",
                       *flags, "--out", report_dir) == 0
        digest = hashlib.sha256((report_dir / "metrics.tsv").read_bytes()).hexdigest()
        assert digest == self.GOLDEN_TSV[flags]

    def test_manifest_records_gain_kind(self, tmp_path):
        run = tmp_path / "x.run"
        qrels = tmp_path / "qrels.txt"
        run.write_text("q1 Q0 a 1 1.000000 t\n", encoding="utf-8")
        qrels.write_text("q1 0 a 2\n", encoding="utf-8")
        for flags, exponential in (((), False), (("--exponential-gain",), True)):
            report_dir = tmp_path / f"report-{exponential}"
            assert run_cli("eval", "--run", run, "--qrels", qrels, *flags, "--out", report_dir) == 0
            config = json.loads((report_dir / "manifest.json").read_text())["config"]
            assert config == {"run": str(run), "qrels": str(qrels), "k": 10, "binarize_at": 1,
                              "exponential_gain": exponential}

    @pytest.mark.parametrize("flag", ["--k", "--binarize-at"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_cutoff_below_one_is_config_error(self, tmp_path, capsys, flag, value):
        run = tmp_path / "x.run"
        qrels = tmp_path / "qrels.txt"
        run.write_text("q1 Q0 a 1 1.000000 t\n", encoding="utf-8")
        qrels.write_text("q1 0 a 1\n", encoding="utf-8")
        empty = tmp_path / "empty.run"
        empty.write_text("", encoding="utf-8")
        missing = tmp_path / "missing.run"
        # the same answer whether a query is evaluated, none is, or no file exists
        for run_path in (run, empty, missing):
            report_dir = tmp_path / "report"
            code = run_cli("eval", "--run", run_path, "--qrels", qrels, flag, value, "--out", report_dir)
            assert code == cli.EXIT_CONFIG
            assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
            assert not report_dir.exists()

    def test_ideal_fixture_scores_one(self, tmp_path, capsys):
        run = tmp_path / "ideal.run"
        qrels = tmp_path / "qrels.txt"
        run.write_text("q1 Q0 a 1 2.000000 t\nq1 Q0 b 2 1.000000 t\n", encoding="utf-8")
        qrels.write_text("q1 0 a 2\nq1 0 b 1\n", encoding="utf-8")
        assert run_cli("eval", "--run", run, "--qrels", qrels) == 0
        out = capsys.readouterr().out
        values = {
            line.split()[0]: line.split()[1]
            for line in out.splitlines()
            if line and not line.startswith("queries")
        }
        assert values["ndcg@10"] == "1.0000"
        assert values["map"] == "1.0000"
        assert values["mrr@10"] == "1.0000"

    def test_report_files_and_aggregate_consistency(self, tmp_path, synth_dir, trained):
        out_run = tmp_path / "reranked.run"
        run_cli(
            "rerank",
            "--checkpoint", trained,
            "--queries", synth_dir / "queries.tsv",
            "--passages", synth_dir / "passages.tsv",
            "--candidates", synth_dir / "candidates.run",
            "--out", out_run,
        )
        report_dir = tmp_path / "report"
        assert (
            run_cli("eval", "--run", out_run, "--qrels", synth_dir / "qrels.txt", "--out", report_dir)
            == 0
        )
        lines = (report_dir / "metrics.tsv").read_text().splitlines()
        per_query: dict[str, list[float]] = {}
        aggregates: dict[str, float] = {}
        for line in lines:
            metric, qid, value = line.split("\t")
            if value == "NA" or metric in ("n_queries", "n_skipped", "binarize_at"):
                continue
            if qid == "all":
                aggregates[metric] = float(value)
            else:
                per_query.setdefault(metric, []).append(float(value))
        for metric, values in per_query.items():
            assert aggregates[metric] == pytest.approx(sum(values) / len(values), abs=1e-6)
        assert len(per_query) == 6

    def test_labels_follow_k(self, tmp_path, capsys):
        run = tmp_path / "deep.run"
        qrels = tmp_path / "qrels.txt"
        # the only relevant document sits at rank 6: inside @10, outside @5
        run.write_text(
            "".join(f"q1 Q0 d{r} {r} {10 - r}.000000 t\n" for r in range(1, 8)), encoding="utf-8"
        )
        qrels.write_text("q1 0 d6 1\n", encoding="utf-8")
        report_dir = tmp_path / "report"
        assert run_cli("eval", "--run", run, "--qrels", qrels, "--k", "5", "--out", report_dir) == 0
        out = capsys.readouterr().out
        values = {
            line.split()[0]: line.split()[1]
            for line in out.splitlines()
            if line and not line.startswith(("queries", "reports"))
        }
        assert set(values) == {"ndcg@5", "map", "mrr@5", "recall@5", "r_prec", "p@5"}
        assert values["ndcg@5"] == values["mrr@5"] == values["recall@5"] == "0.0000"
        assert values["map"] == "0.1667"
        tsv = (report_dir / "metrics.tsv").read_text()
        assert "@10" not in tsv
        assert "ndcg@5\tq1\t0.000000\n" in tsv and "mrr@5\tall\t0.000000\n" in tsv
        assert (report_dir / "metrics.txt").read_text() in out

    @pytest.mark.parametrize(
        "grades, top",
        [
            ("a 1024", 1024),  # 2**1024 - 1 is past the float range
            ("a 1023\nq1 0 b 1023\nq1 0 c 1023", 1023),  # each gain fits, their DCG sum does not
        ],
    )
    def test_exponential_gain_overflow_is_input_error(self, tmp_path, capsys, grades, top):
        run = tmp_path / "x.run"
        qrels = tmp_path / "qrels.txt"
        run.write_text("q1 Q0 a 1 1.000000 t\nq1 Q0 b 2 0.500000 t\n", encoding="utf-8")
        qrels.write_text(f"q1 0 {grades}\n", encoding="utf-8")
        report_dir = tmp_path / "report"
        code = run_cli("eval", "--run", run, "--qrels", qrels, "--exponential-gain", "--out", report_dir)
        assert code == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == f"input error: query 'q1': the NDCG gain of grade {top} overflows a float\n"
        assert "nan" not in captured.out
        assert not report_dir.exists()
        # linear gains of the same judgments evaluate as before
        assert run_cli("eval", "--run", run, "--qrels", qrels) == cli.EXIT_OK

    def test_repeated_docid_is_input_error(self, tmp_path, capsys):
        run = tmp_path / "x.run"
        qrels = tmp_path / "qrels.txt"
        run.write_text("q1 Q0 d1 1 3.0 t\nq1 Q0 d1 2 2.0 t\nq1 Q0 d2 3 1.0 t\n", encoding="utf-8")
        qrels.write_text("q1 0 d1 1\n", encoding="utf-8")
        assert run_cli("eval", "--run", run, "--qrels", qrels) == cli.EXIT_PARSE
        assert capsys.readouterr().err == "input error: query 'q1': docid 'd1' is ranked more than once\n"

    def test_unwritable_metrics_file_is_config_error(self, tmp_path, capsys):
        run = tmp_path / "x.run"
        qrels = tmp_path / "qrels.txt"
        run.write_text("q1 Q0 a 1 1.000000 t\n", encoding="utf-8")
        qrels.write_text("q1 0 a 1\n", encoding="utf-8")
        blocker = tmp_path / "report" / "metrics.tsv"
        blocker.mkdir(parents=True)
        assert run_cli("eval", "--run", run, "--qrels", qrels, "--out", tmp_path / "report") == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(blocker) in err

    def test_malformed_run_is_parse_error(self, tmp_path):
        run = tmp_path / "bad.run"
        qrels = tmp_path / "qrels.txt"
        run.write_text("not a run line\n", encoding="utf-8")
        qrels.write_text("q1 0 a 1\n", encoding="utf-8")
        assert run_cli("eval", "--run", run, "--qrels", qrels) == cli.EXIT_PARSE


class TestBenchOptim:
    def test_import_reprints_usage_table_gains(self, tmp_path, capsys):
        means = tmp_path / "means.tsv"
        means.write_text(
            "encoder-small\t33.09\t32.21\n"
            "encoder-multilingual\t73.04\t65.50\n"
            "encoder-long-context\t77.04\t74.35\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "bench"
        assert run_cli("bench-optim", "--import", means, "--out", out_dir) == 0
        out = capsys.readouterr().out
        assert "2.66%" in out
        assert "10.32%" in out
        assert "3.49%" in out
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["artifacts"] == sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
        assert (manifest["seed"], manifest["config"]) == (0, {"import": str(means)})

    @pytest.mark.parametrize(
        "row, column, mean",
        [
            ("broken\t0\t1.0", "adamw_mean", "0"),
            ("broken\t-1.5\t1.0", "adamw_mean", "-1.5"),
            ("x\t10\t-5", "lion_mean", "-5"),
            ("y\t10\t0", "lion_mean", "0"),
        ],
        ids=["0", "-1.5", "lion_mean--5", "lion_mean-0"],  # the first two ids predate the lion_mean cases
    )
    def test_import_nonpositive_adamw_mean_names_file_and_line(self, tmp_path, capsys, row, column, mean):
        means = tmp_path / "means.tsv"
        means.write_text(f"# label\tadamw\tlion\nencoder-small\t33.09\t32.21\n{row}\n", encoding="utf-8")
        assert run_cli("bench-optim", "--import", means) == cli.EXIT_PARSE
        assert f"{means}: {column} must be positive on line 3, got {mean}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, column, value",
        [
            ("x\tnan\t1.0", "adamw_mean", "nan"),
            ("y\tinf\t2", "adamw_mean", "inf"),
            ("z\t1\tnan", "lion_mean", "nan"),
            ("w\t1\t-inf", "lion_mean", "-inf"),
        ],
    )
    def test_import_non_finite_mean_names_file_line_and_column(self, tmp_path, capsys, row, column, value):
        means = tmp_path / "means.tsv"
        means.write_text(f"encoder-small\t33.09\t32.21\n{row}\n", encoding="utf-8")
        assert run_cli("bench-optim", "--import", means) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert f"{means}: {column} must be finite on line 2, got {value}" in captured.err
        assert "%" not in captured.out

    def test_config_mode_compares_both(self, tmp_path, synth_dir, capsys):
        config = write_config(tmp_path, synth_dir)
        out_dir = tmp_path / "bench"
        assert run_cli("bench-optim", "--config", config, "--out", out_dir) == 0
        text = (out_dir / "bench.txt").read_text()
        assert "state bytes" in text and "lion" in text and "adamw" in text
        # state-bytes gain is ~50% regardless of model size
        gain_line = next(l for l in text.splitlines() if "state bytes" in l)
        gain = float(gain_line.split(":")[1].strip().rstrip("%"))
        assert 49.0 <= gain <= 51.0
        assert "efficiency gain (mean step time)" in text
        assert "efficiency gain (optimizer update time)" in text
        keys = [line.split("=")[0] for line in (out_dir / "stats-lion.txt").read_text().splitlines()]
        assert keys == [
            "optimizer", "optimizer_state_bytes", "mean_step_ms", "peak_step_ms", "std_step_ms",
            "n_steps", "[usage-table]", "mean", "peak", "std", "data_points", "mean_update_ms",
        ]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        produced = sorted(p.name for p in out_dir.iterdir() if p.name != "manifest.json")
        assert manifest["artifacts"] == produced

    def test_requires_config_or_import(self):
        assert run_cli("bench-optim") == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flag, value", [("--config", "/nonexistent.ini"), ("--seed", "-4"), ("--name", "x")])
    def test_import_rejects_training_flags(self, tmp_path, capsys, flag, value):
        means = tmp_path / "means.tsv"
        means.write_text("encoder-small\t33.09\t32.21\n", encoding="utf-8")
        out_dir = tmp_path / "bench"
        assert run_cli("bench-optim", "--import", means, flag, value, "--out", out_dir) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"config error: {flag} does not apply to --import" in captured.err
        assert captured.out == "" and not out_dir.exists()
        # --out is an --import option
        assert run_cli("bench-optim", "--import", means, "--out", out_dir) == 0
        assert "2.66%" in (out_dir / "bench.txt").read_text()


class TestReport:
    def test_prints_stats_and_metrics(self, tmp_path, synth_dir, trained, capsys):
        stats = tmp_path / "out" / "stats-lion.txt"
        assert run_cli("report", stats) == 0
        out = capsys.readouterr().out
        assert "optimizer_state_bytes" in out


class TestCosineScheduleConfig:
    def test_lr_column_anneals(self, tmp_path, synth_dir):
        config = write_config(tmp_path, synth_dir, extra="schedule = cosine\nwarmup_ratio = 0\n")
        assert run_cli("train", "--config", config) == 0
        rows = (tmp_path / "out" / "loss-lion.tsv").read_text().splitlines()
        lrs = [float(r.split("\t")[2]) for r in rows]
        assert lrs[0] == 2e-4
        assert lrs == sorted(lrs, reverse=True)
        assert lrs[-1] < 2e-4
