"""Command line entry point: generate data, train, evaluate, summarize.

Exit codes: 0 on success, 2 for configuration problems, 3 for unreadable or
malformed data files, 4 when training hits a numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import dataclasses
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .em import (CheckpointError, EmConfig, NumericError, evaluate_froc, load_checkpoint,
                 open_atomic, read_metrics_csv, save_checkpoint, train_em,
                 write_metrics_csv)
from .froc import FP_RATES
from .synthvol import (DatasetError, GenerationError, GeneratorConfig, attach_weak_labels,
                       check_container_capacity, generate_scan, load_dataset, require_ints,
                       save_dataset)

MODES = ("baseline", "deepem-map", "deepem-sampling")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

SPLIT_FILES = {"train_full": "train_full.wem", "train_weak": "train_weak.wem",
               "valid": "valid.wem"}


class ConfigError(Exception):
    """Experiment configuration is missing, malformed, or inconsistent."""


@dataclass
class ExperimentConfig:
    """Everything one experiment needs: generator knobs, training knobs,
    split sizes, seeds, mode, and the output directory."""

    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    em: EmConfig = field(default_factory=EmConfig)
    seeds: tuple[int, ...] = (0,)
    mode: str = "deepem-sampling"
    out_dir: str = "results"
    data_seed: int = 0
    n_full: int = 40
    n_weak: int = 200
    n_valid: int = 40

    def validate(self) -> None:
        self.generator.validate()
        self.em.validate()
        require_ints("seeds", *self.seeds)
        for name in ("data_seed", "n_full", "n_weak", "n_valid"):
            require_ints(name, getattr(self, name))
        if not isinstance(self.out_dir, str):
            raise ConfigError("out_dir must be a string")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if min(*self.seeds, self.data_seed) < 0:
            raise ConfigError("seeds and data_seed must be nonnegative")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if min(self.n_full, self.n_weak, self.n_valid) < 0:
            raise ConfigError("split sizes must be nonnegative")
        try:
            check_container_capacity(self.generator.dims,
                                     max(self.n_full, self.n_weak, self.n_valid))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return {
            "generator": {**dataclasses.asdict(self.generator),
                          "dims": list(self.generator.dims)},
            "em": self.em.to_dict(),
            "seeds": list(self.seeds),
            "mode": self.mode,
            "out_dir": self.out_dir,
            "data_seed": self.data_seed,
            "n_full": self.n_full,
            "n_weak": self.n_weak,
            "n_valid": self.n_valid,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The inverse of ``to_dict``; absent keys take the defaults above."""
        d = dict(d)
        gen = dict(d.pop("generator", {}))
        if "dims" in gen:
            gen["dims"] = tuple(gen["dims"])
        if "seeds" in d:
            d["seeds"] = tuple(d["seeds"])
        return cls(generator=GeneratorConfig(**gen), em=EmConfig.from_dict(d.pop("em", {})), **d)


def load_experiment(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    try:
        exp = ExperimentConfig.from_dict(raw)
        exp.validate()  # a wrong-typed value makes its comparisons raise TypeError
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config value: {exc}") from exc
    return exp


def _apply_overrides(exp: ExperimentConfig, args) -> ExperimentConfig:
    # argparse types and choices make --mode and --out valid; a --seed can
    # still be negative, so the result is validated again
    if getattr(args, "seed", None):
        exp = replace(exp, seeds=tuple(args.seed))
    if getattr(args, "mode", None):
        exp = replace(exp, mode=args.mode)
    if getattr(args, "out", None):
        exp = replace(exp, out_dir=args.out)
    exp.validate()
    return exp


def _scan_seed(data_seed: int, split_id: int, index: int, salt: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence((data_seed, split_id, index, salt))


def cmd_generate(exp: ExperimentConfig) -> None:
    """Write the three dataset splits under the output directory.

    Split seeds are disjoint by construction. The fully labeled and weak
    training splits both carry weak labels (the first so slice noise can be
    estimated from observed pairs); validation carries truth only.
    """
    plan = (("train_full", 0, exp.n_full, True),
            ("train_weak", 1, exp.n_weak, True),
            ("valid", 2, exp.n_valid, False))
    for name, _, count, _ in plan:
        if count == 0:
            raise ConfigError(f"empty split: {name}")
    out = Path(exp.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, split_id, count, weak in plan:
        scans = []
        for i in range(count):
            seed = int(_scan_seed(exp.data_seed, split_id, i).generate_state(1)[0])
            scan = generate_scan(seed, exp.generator)
            if weak:
                rng = np.random.default_rng(_scan_seed(exp.data_seed, split_id, i, salt=7))
                scan = attach_weak_labels(scan, exp.generator.weak_sigma,
                                          exp.generator.weak_mu, rng)
            scans.append(scan)
        path = out / SPLIT_FILES[name]
        save_dataset(scans, path)
        nodules = sum(len(s.truth) for s in scans)
        print(f"{name}: {len(scans)} scans, {nodules} nodules -> {path}")
    # resolved config sits next to the data it produced; the directory itself
    # is not part of the record so regeneration elsewhere is byte-identical
    stored = exp.to_dict()
    del stored["out_dir"]
    (out / "experiment.json").write_text(
        json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _mode_config(exp: ExperimentConfig) -> EmConfig:
    if exp.mode == "deepem-map":
        return replace(exp.em, inference="map")
    if exp.mode == "deepem-sampling":
        return replace(exp.em, inference="sampling")
    return exp.em


def checkpoint_path(out: Path, mode: str, seed: int) -> Path:
    return out / f"checkpoint_{mode}_seed{seed}.json"


def metrics_path(out: Path, mode: str, seed: int) -> Path:
    return out / f"metrics_{mode}_seed{seed}.csv"


def _load_scored_split(path) -> list:
    # a dataset that FROC scores, so it must hold at least one truth box
    scans = load_dataset(path)
    if not any(scan.truth for scan in scans):
        raise DatasetError(f"{path}: no truth boxes to score detections against")
    return scans


def cmd_train(exp: ExperimentConfig) -> None:
    """Train one run per seed in the configured mode; write a checkpoint and
    a per-epoch metrics CSV for each."""
    out = Path(exp.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    d_val = _load_scored_split(out / SPLIT_FILES["valid"])
    d_full = load_dataset(out / SPLIT_FILES["train_full"])
    d_weak = load_dataset(out / SPLIT_FILES["train_weak"])
    cfg = _mode_config(exp)
    if exp.mode == "baseline":
        d_weak = []
    for seed in exp.seeds:
        result = train_em(d_full, d_weak, d_val, cfg, rng=seed)
        save_checkpoint(checkpoint_path(out, exp.mode, seed), result.params, cfg,
                        epoch=cfg.epochs)
        write_metrics_csv(metrics_path(out, exp.mode, seed), result.history)
        final = result.history[-1].froc if result.history else float("nan")
        print(f"{exp.mode} seed {seed}: final FROC {100.0 * final:.2f}")


def cmd_eval(checkpoint, dataset, out_dir=None) -> None:
    """Evaluate a checkpoint on a dataset; print the seven operating points
    and write the FROC curve CSV."""
    params, cfg, _ = load_checkpoint(checkpoint)
    scans = _load_scored_split(dataset)
    result = evaluate_froc(scans, params, cfg)
    for rate, sens in zip(result.fp_rates, result.sensitivities):
        print(f"sensitivity at {rate:g} fp/scan: {100.0 * sens:.2f}")
    print(f"average over {len(result.fp_rates)} operating points: "
          f"{result.as_percent():.2f}")
    out = Path(out_dir) if out_dir else Path(checkpoint).parent
    out.mkdir(parents=True, exist_ok=True)
    curve_path = out / (Path(checkpoint).stem + "_froc.csv")
    with open_atomic(curve_path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "fp_per_scan", "sensitivity"])
        for point in result.curve:
            writer.writerow([repr(point.threshold), repr(point.fp_per_scan),
                             repr(point.sensitivity)])
        writer.writerow(["summary", *[repr(s) for s in result.sensitivities],
                         repr(result.average)])
    print(f"curve -> {curve_path}")


def cmd_report(exp: ExperimentConfig) -> None:
    """Aggregate final FROC per mode over whatever runs exist on disk."""
    out = Path(exp.out_dir)
    rows = []
    for mode in MODES:
        finals = []
        for seed in exp.seeds:
            path = metrics_path(out, mode, seed)
            if not path.exists():
                continue
            history = read_metrics_csv(path)
            if history:
                finals.append(history[-1].froc)
        if finals:
            rows.append((mode, len(finals), float(np.mean(finals)), float(np.std(finals))))
    if not rows:
        raise ConfigError(f"no metrics files found under {out}")
    baseline = next((r[2] for r in rows if r[0] == "baseline"), None)
    print(f"{'mode':<18}{'seeds':>6}{'mean froc':>12}{'std':>8}{'vs baseline':>13}")
    summary = out / "summary.csv"
    with open_atomic(summary) as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "seeds", "mean_froc", "std_froc", "delta_vs_baseline"])
        for mode, n, mean, std in rows:
            delta = "" if baseline is None or mode == "baseline" else 100.0 * (mean - baseline)
            delta_txt = f"{delta:+.2f}" if delta != "" else ""
            print(f"{mode:<18}{n:>6}{100.0 * mean:>12.2f}{100.0 * std:>8.2f}{delta_txt:>13}")
            writer.writerow([mode, n, repr(mean), repr(std),
                             repr(delta / 100.0) if delta != "" else ""])
    print(f"summary -> {summary}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="weakem",
                                     description="EM training of a nodule detector "
                                                 "from fully and weakly labeled scans")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="override the configured output directory")

    p_gen = sub.add_parser("generate", help="write the dataset splits")
    add_common(p_gen)

    p_train = sub.add_parser("train", help="train one run per seed")
    add_common(p_train)
    p_train.add_argument("--seed", type=int, action="append",
                         help="override config seeds (repeatable)")
    p_train.add_argument("--mode", choices=MODES, help="override the config mode")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("dataset")
    p_eval.add_argument("--out", help="directory for the curve CSV")

    p_rep = sub.add_parser("report", help="aggregate run metrics")
    add_common(p_rep)
    p_rep.add_argument("--seed", type=int, action="append",
                       help="override config seeds (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            cmd_eval(args.checkpoint, args.dataset, args.out)
        else:
            exp = _apply_overrides(load_experiment(args.config), args)
            if args.command == "generate":
                cmd_generate(exp)
            elif args.command == "train":
                cmd_train(exp)
            elif args.command == "report":
                cmd_report(exp)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, CheckpointError, GenerationError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
