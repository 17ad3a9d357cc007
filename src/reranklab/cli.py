"""Command-line driver for the training / reranking / evaluation pipeline.

One declarative INI config describes a training run; flags override
config values. Exit codes: 0 success, 2 config errors, 3 input parse
errors, 4 numeric failures (non-finite loss).
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

from reranklab import ir_eval, synth, train as train_mod
from reranklab.checkpoint import CheckpointError, load_checkpoint
from reranklab.model import CrossEncoderConfig, Vocab, init_params
from reranklab.optim import OPTIMIZERS
from reranklab.train import (
    NonFiniteLossError,
    TrainConfig,
    TrainPair,
    efficiency_gain,
    run_training,
    triplets_to_pairs,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

OUT_ROOT_ENV = "RERANKLAB_OUT_ROOT"
MANIFEST_VERSION = 1


class ConfigError(ValueError):
    """Bad config file, bad flag combination, or missing input file."""


# ---------------------------------------------------------------------------
# helpers


def _output_dir(value: str | Path, field: str) -> Path:
    """Create directory ``value``, rooting a relative path at $RERANKLAB_OUT_ROOT; errors name ``field``."""
    path = Path(value)
    root = os.environ.get(OUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{field}: cannot create output directory {path}: {exc}") from None
    return path


def _require_file(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"{what} file not found: {path}")
    return path


@contextmanager
def _committing(out_dir: Path, command: str, seed: int, config_snapshot: dict):
    """Delete ``out_dir``'s manifest, run the block, then write a manifest of the files it names.

    The block appends each file it writes to the yielded list; a block that raises leaves no manifest.
    Enter it once every setting and input is checked, so that a bad one leaves the directory as it was.
    """
    path = out_dir / "manifest.json"
    path.unlink(missing_ok=True)
    artifacts: list[str] = []
    yield artifacts
    manifest = {
        "format_version": MANIFEST_VERSION,
        "command": command,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "seed": seed,
        "config": config_snapshot,
        "artifacts": sorted(artifacts),
    }
    ir_eval.write_replacing(path, json.dumps(manifest, indent=2) + "\n")


def _align_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config file handling

# Fields each run sets itself: the vocab size from the triplets, the seed from
# [run] or --seed, and the optimizer from the section or flag that selects it.
_RUN_FIXED = {"vocab_size", "seed", "optimizer"}


def _setting_keys(cls) -> set[str]:
    return {f.name for f in fields(cls)} - _RUN_FIXED


# Keys a run config may set; a section named after an optimizer kind
# ([lion], [adamw]) overrides [train] for that optimizer.
_INI_KEYS = {
    "run": {"name", "seed", "out_dir"},
    "data": {"triplets"},
    "model": _setting_keys(CrossEncoderConfig),
    "train": _setting_keys(TrainConfig) | {"optimizer"},
    **{kind: _setting_keys(TrainConfig) for kind in OPTIMIZERS},
}


def _read_ini(path: Path) -> configparser.ConfigParser:
    """Parse a run config, rejecting sections and keys no command reads."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with ir_eval.open_utf8(path, ConfigError) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"config {path} is not valid INI: {exc}") from exc
    for section in parser.sections():
        if section not in _INI_KEYS:
            raise ConfigError(f"config {path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _INI_KEYS[section]:
                raise ConfigError(f"config {path}: unknown key [{section}] {key}")
    return parser


def _ini_value(parser: configparser.ConfigParser, section: str, key: str, default):
    """``[section] key`` parsed as the type of ``default``, or ``default`` when the key is absent."""
    if not parser.has_option(section, key):
        return default
    raw = parser[section][key]
    if isinstance(default, bool):
        value = raw.strip().lower()
        if value not in parser.BOOLEAN_STATES:
            raise ConfigError(f"[{section}] {key}: expected a boolean (true/false), got {raw!r}")
        return parser.BOOLEAN_STATES[value]
    try:
        return type(default)(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected {type(default).__name__}, got {raw!r}") from None


def _settings(cls, parser: configparser.ConfigParser, sections: tuple[str, ...], **fixed):
    """``cls`` built from the INI ``sections``, a later one winning, and the ``fixed`` fields.

    A field no section sets keeps its dataclass default. A value out of range
    is a ConfigError naming the ``[section] key`` that set it.
    """
    values, source = dict(fixed), {}
    for f in fields(cls):
        found = [section for section in sections if parser.has_option(section, f.name)]
        if found and f.name not in fixed:
            source[f.name] = found[-1]
            values[f.name] = _ini_value(parser, found[-1], f.name, f.default)
    try:
        return cls(**values)
    except ValueError as exc:
        # The configs' messages start with the offending field, which is also its key.
        key = str(exc).split()[0]
        raise ConfigError(f"[{source.get(key, sections[0])}] {exc}") from None


def _select_optimizers(parser: configparser.ConfigParser, flag_value: str | None) -> list[str]:
    if flag_value:
        return [flag_value]
    present = [name for name in OPTIMIZERS if parser.has_section(name)]
    return present or [_ini_value(parser, "train", "optimizer", TrainConfig.optimizer)]


def _config_snapshot(parser: configparser.ConfigParser) -> dict:
    return {section: dict(parser[section]) for section in parser.sections()}


def _check_run_name(name: str, field: str) -> str:
    # The name starts every checkpoint's file name, and the file stem is
    # rerank's default run tag.
    if not name or "/" in name or any(ch.isspace() for ch in name):
        raise ConfigError(f"{field}: expected a non-empty run name without whitespace or '/', got {name!r}")
    return name


# ---------------------------------------------------------------------------
# commands


@dataclass
class _Run:
    """What ``train`` and ``bench-optim`` read once and share between optimizers."""

    parser: configparser.ConfigParser
    seed: int
    name: str
    out_dir: Path
    vocab: Vocab
    pairs: list[TrainPair]
    model_config: CrossEncoderConfig

    def train_configs(self, kinds) -> list[TrainConfig]:
        """Every run's settings, all checked before the first run trains."""
        return [_settings(TrainConfig, self.parser, ("train", kind), seed=self.seed, optimizer=kind) for kind in kinds]

    def train_each(self, configs, artifacts: list[str]):
        """``(config, result)`` for each config, trained in turn into ``out_dir``; its files join ``artifacts``."""
        for config in configs:
            model = init_params(self.model_config)
            result = run_training(model, self.vocab, self.pairs, config, self.out_dir, run_name=self.name)
            artifacts.extend(result.files)
            yield config, result


def _load_run_config(args) -> _Run:
    """Read ``--config`` and the triplets it names, for ``train`` and ``bench-optim``.

    Flags win over ``[run]``, and the output directory is created.
    """
    if args.name is not None:  # checked before any file is read
        _check_run_name(args.name, "--name")
    parser = _read_ini(_require_file(args.config, "config"))
    run_section = parser["run"] if parser.has_section("run") else {}
    if args.seed is not None:
        seed, seed_field = args.seed, "--seed"
    else:
        seed, seed_field = _ini_value(parser, "run", "seed", TrainConfig.seed), "[run] seed"
    if seed < 0:
        raise ConfigError(f"{seed_field}: expected a non-negative integer, got {seed}")
    name = args.name
    if name is None:
        field = "[run] name" if "name" in run_section else "run name (the config file stem)"
        name = _check_run_name(run_section.get("name", Path(args.config).stem), field)
    out_value = args.out or run_section.get("out_dir")
    if not out_value:
        raise ConfigError("no output directory: set [run] out_dir or pass --out")
    out_dir = _output_dir(out_value, "--out" if args.out else "[run] out_dir")
    if not parser.has_section("data") or not parser["data"].get("triplets"):
        raise ConfigError("config needs [data] triplets = <path>")
    triplets_path = _require_file(parser["data"]["triplets"], "triplets")
    triplets = train_mod.load_triplets(triplets_path)
    pairs = triplets_to_pairs(triplets)
    if not pairs:
        raise ConfigError(f"no usable training pairs in {triplets_path}")
    vocab = Vocab.build([t.query for t in triplets] + [t.positive for t in triplets] + [t.negative for t in triplets])
    model_config = _settings(CrossEncoderConfig, parser, ("model",), vocab_size=vocab.size, seed=seed)
    return _Run(parser, seed, name, out_dir, vocab, pairs, model_config)


def cmd_train(args) -> int:
    if args.epochs is not None and args.epochs < 1:
        raise ConfigError(f"--epochs: expected a positive integer, got {args.epochs}")
    run = _load_run_config(args)
    parser = run.parser
    if args.epochs is not None:
        if not parser.has_section("train"):
            parser.add_section("train")
        parser["train"]["epochs"] = str(args.epochs)
        # The flag also wins over a per-optimizer section's own epochs.
        for kind in OPTIMIZERS:
            if parser.has_section(kind):
                parser.remove_option(kind, "epochs")

    configs = run.train_configs(_select_optimizers(parser, args.optimizer))
    with _committing(run.out_dir, "train", run.seed, _config_snapshot(parser)) as artifacts:
        for config, result in run.train_each(configs, artifacts):
            final_epoch = result.loss_log[-1].epoch
            final = [r.loss for r in result.loss_log if r.epoch == final_epoch]
            print(
                f"{config.optimizer}: {result.stats.n_steps} steps, "
                f"final-epoch mean loss {sum(final) / len(final):.6f}, "
                f"state bytes {result.stats.optimizer_state_bytes}"
            )
    print(f"artifacts in {run.out_dir}")
    return EXIT_OK


def cmd_rerank(args) -> int:
    # Run lines are whitespace-separated, so a tag holding whitespace would
    # write a run that eval cannot parse.
    tag = Path(args.checkpoint).stem if args.tag is None else args.tag
    if not tag or any(ch.isspace() for ch in tag):
        default = "" if args.tag is not None else " (the checkpoint file stem, used when --tag is not given)"
        raise ConfigError(f"--tag: expected a non-empty run tag without whitespace, got {tag!r}{default}")
    out_path = _output_dir(Path(args.out).parent, "--out") / Path(args.out).name
    if out_path.is_dir():
        raise ConfigError(f"--out: {out_path} is a directory; expected the path of the run file to write")
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    bundle = load_checkpoint(ckpt_path)
    queries = ir_eval.read_corpus_tsv(_require_file(args.queries, "queries"))
    passages = ir_eval.read_corpus_tsv(_require_file(args.passages, "passages"))
    candidates = ir_eval.read_run(_require_file(args.candidates, "candidates run"))
    reranked = ir_eval.rerank(bundle.model, bundle.vocab, queries, passages, candidates)
    ir_eval.write_replacing(out_path, ir_eval.format_run(reranked, tag))
    print(f"wrote {sum(map(len, reranked.values()))} reranked lines to {out_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    for flag, value in (("--k", args.k), ("--binarize-at", args.binarize_at)):
        if value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    run = ir_eval.read_run(_require_file(args.run, "run"))
    qrels = ir_eval.read_qrels(_require_file(args.qrels, "qrels"))
    report = ir_eval.evaluate(
        run, qrels, k=args.k, binarize_at=args.binarize_at, exponential_gain=args.exponential_gain
    )
    table = ir_eval.report_table(report)
    print(table, end="")
    if args.out:
        out_dir = _output_dir(args.out, "--out")
        snapshot = {"run": str(args.run), "qrels": str(args.qrels), "k": args.k, "binarize_at": args.binarize_at,
                    "exponential_gain": args.exponential_gain}
        with _committing(out_dir, "eval", 0, snapshot) as artifacts:
            ir_eval.write_replacing(out_dir / "metrics.tsv", "\n".join(ir_eval.report_tsv_lines(report)) + "\n")
            ir_eval.write_replacing(out_dir / "metrics.txt", table)
            artifacts += ["metrics.tsv", "metrics.txt"]
        print(f"reports in {out_dir}")
    return EXIT_OK


def _bench_import(path: Path) -> str:
    rows = []
    with ir_eval.open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ir_eval.ParseError(f"{path}: expected label<TAB>adamw_mean<TAB>lion_mean on line {lineno}")
            try:
                adamw_mean, lion_mean = float(parts[1]), float(parts[2])
            except ValueError:
                raise ir_eval.ParseError(f"{path}: non-numeric means on line {lineno}") from None
            for column, text, value in (("adamw_mean", parts[1], adamw_mean), ("lion_mean", parts[2], lion_mean)):
                if not math.isfinite(value):
                    raise ir_eval.ParseError(f"{path}: {column} must be finite on line {lineno}, got {text}")
                if value <= 0:
                    raise ir_eval.ParseError(f"{path}: {column} must be positive on line {lineno}, got {text}")
            rows.append([parts[0], f"{adamw_mean:.2f}", f"{lion_mean:.2f}",
                         f"{efficiency_gain(adamw_mean, lion_mean):.2f}%"])
    return _align_table(["label", "adamw_mean", "lion_mean", "efficiency_gain"], rows)


def _usage_table(stats: dict[str, train_mod.ResourceStats]) -> str:
    rows = [
        [
            opt,
            str(stats[opt].optimizer_state_bytes),
            f"{stats[opt].mean_step_ms:.3f}",
            f"{stats[opt].peak_step_ms:.3f}",
            f"{stats[opt].std_step_ms:.3f}",
            str(stats[opt].n_steps),
        ]
        for opt in stats
    ]
    table = _align_table(
        ["optimizer", "state_bytes", "mean_ms", "peak_ms", "std_ms", "data_points"], rows
    )
    for label, field in (("state bytes", "optimizer_state_bytes"), ("mean step time", "mean_step_ms"),
                         ("optimizer update time", "mean_update_ms")):
        gain = efficiency_gain(getattr(stats["adamw"], field), getattr(stats["lion"], field))
        table += f"efficiency gain ({label}): {gain:.2f}%\n"
    return table


def cmd_bench_optim(args) -> int:
    if args.import_file:
        for flag, value in (("--config", args.config), ("--seed", args.seed), ("--name", args.name)):
            if value is not None:
                raise ConfigError(f"{flag} does not apply to --import, which only tabulates the given means")
        table = _bench_import(_require_file(args.import_file, "import"))
        out_dir = _output_dir(args.out, "--out") if args.out else None
        print(table, end="")
        if out_dir:
            with _committing(out_dir, "bench-optim", 0, {"import": str(args.import_file)}) as artifacts:
                ir_eval.write_replacing(out_dir / "bench.txt", table)
                artifacts.append("bench.txt")
        return EXIT_OK
    if not args.config:
        raise ConfigError("bench-optim needs --config or --import")
    run = _load_run_config(args)
    # AdamW is the baseline and Lion the candidate, the paper's comparison.
    configs = run.train_configs(("adamw", "lion"))
    with _committing(run.out_dir, "bench-optim", run.seed, _config_snapshot(run.parser)) as artifacts:
        table = _usage_table({config.optimizer: result.stats for config, result in run.train_each(configs, artifacts)})
        print(table, end="")
        ir_eval.write_replacing(run.out_dir / "bench.txt", table)
        artifacts.append("bench.txt")
    return EXIT_OK


def _synth_flag(field: str) -> str:
    return "--" + field.removeprefix("n_").replace("_", "-")  # --triplets sets n_triplets


def cmd_synthetic_data(args) -> int:
    try:
        config = synth.SynthConfig(**{f.name: getattr(args, f.name) for f in fields(synth.SynthConfig)})
    except ValueError as exc:
        # SynthConfig's messages start with the offending field.
        raise ConfigError(f"{_synth_flag(str(exc).split()[0])}: {exc}") from None
    data = synth.generate(config)
    out_dir = _output_dir(args.out, "--out")
    with _committing(out_dir, "synthetic-data", config.seed, {"synth": asdict(config)}) as artifacts:
        artifacts += synth.write_synth_files(data, out_dir).values()
    print(f"synthetic corpus in {out_dir}: {', '.join(sorted(artifacts))}")
    return EXIT_OK


def cmd_report(args) -> int:
    for path_str in args.files:
        path = _require_file(path_str, "report")
        with ir_eval.open_utf8(path) as fh:
            text = fh.read()
        print(f"== {path}")
        if "\t" in text:
            rows = [line.split("\t") for line in text.splitlines() if line]
            width = max(len(r[0]) for r in rows)
            qwidth = max(len(r[1]) for r in rows if len(r) > 1)
            for r in rows:
                if len(r) == 3:
                    print(f"{r[0]:<{width}}  {r[1]:<{qwidth}}  {r[2]}")
                else:
                    print("  ".join(r))
        else:
            print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reranklab",
        description="Train toy cross-encoders with Lion/AdamW, rerank TREC runs, evaluate IR metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run training from an INI config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (overrides [run] out_dir)")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--optimizer", choices=tuple(OPTIMIZERS))
    p.add_argument("--name", help="checkpoint name prefix (default: [run] name)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rerank", help="rescore a candidate run with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--passages", required=True)
    p.add_argument("--candidates", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tag", help="run tag (default: checkpoint file stem)")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument(
        "--binarize-at",
        type=int,
        default=1,
        help="minimum grade counted relevant for binary metrics (TREC DL passage convention: 2)",
    )
    p.add_argument("--exponential-gain", action="store_true", help="use 2^rel - 1 NDCG gains")
    p.add_argument("--out", help="directory for metrics.tsv / metrics.txt")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench-optim", help="compare Lion vs AdamW resource usage")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--name")
    p.add_argument("--import", dest="import_file", help="TSV of label, adamw_mean, lion_mean")
    p.set_defaults(func=cmd_bench_optim)

    p = sub.add_parser("synthetic-data", help="generate a seeded separable corpus")
    p.add_argument("--out", required=True)
    for f in fields(synth.SynthConfig):
        p.add_argument(
            _synth_flag(f.name), dest=f.name, metavar=f.name.removeprefix("n_").upper(),
            type=type(f.default), default=f.default,
        )
    p.set_defaults(func=cmd_synthetic_data)

    p = sub.add_parser("report", help="pretty-print saved stats/metric files")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, CheckpointError, OSError) as exc:  # an OSError's message names its file
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ir_eval.ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NonFiniteLossError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
