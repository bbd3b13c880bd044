#!/usr/bin/env python3
"""The weakem benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is ``src/weakem``, run
through its own CLI (``python3 -m weakem.cli``) in a child process with
BLAS/OpenMP threads pinned to 1. The seed makes the input scans; the
program sees only the generated ``.wem`` files.

With ``--trace 0`` the timed command is repeated until ``--seconds`` have
passed (at least once) and the end-to-end metrics are printed. With
``--trace 1`` it runs once untraced and once under ``bench/traced_cli.py``,
and the per-layer metrics of the traced run are printed. Either way the
outputs are checked after the timed part, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Work files go to ``.bench_runs/`` under the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checks


def _process_age_s() -> float:
    # seconds since this process started, so set-up time counts interpreter start-up
    try:
        fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


STARTED = time.perf_counter() - _process_age_s()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
DEADLINE_S = 170.0
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# the committed benchmark experiment's generator (configs/benchmark.json)
GEN_32 = {"dims": [32, 32, 32], "noise": 0.02, "clutter": 0.03, "contrast_min": 0.4,
          "contrast_max": 0.6, "diameter_min": 7.0, "diameter_max": 9.0}
# its splits and its schedule shortened to about a third, keeping the
# warm-start share (init_epochs / epochs = 5) and the 1/t step-size decay
TRAIN_32 = {"generator": GEN_32, "n_full": 40, "n_weak": 200, "n_valid": 40, "seeds": [0],
            "em": {"init_epochs": 100, "epochs": 20, "lr_detector": 2.0}}
# a short supervised run on fixed data (the same checkpoint in every run),
# whose checkpoint the 64^3 workload evaluates
CHECKPOINT_32 = {"generator": GEN_32, "n_full": 40, "n_weak": 1, "n_valid": 1, "seeds": [0],
                 "mode": "baseline", "em": {"init_epochs": 60, "epochs": 1, "lr_detector": 2.0}}
CHECKPOINT_DATA_SEED = 0
# nodules of the same size in a volume 8x larger, more of them and brighter,
# against less clutter: with the 32^3 generator, FROC over five 64^3 scans
# spread by 24-35% between seeds, here by about 10%
EVAL_64 = {"generator": {**GEN_32, "dims": [64, 64, 64], "count_min": 4, "count_max": 8,
                         "clutter": 0.02, "contrast_min": 0.8, "contrast_max": 1.0},
           "n_full": 1, "n_weak": 1, "n_valid": 5}
NMS_SCANS_64 = 2  # program NMS is checked on this many 64^3 scans (cold filter costs ~3 s each)

WORKLOADS = ("train-sampling-32", "train-baseline-32", "eval-cold-64")
TRAIN_MODES = {"train-sampling-32": "deepem-sampling", "train-baseline-32": "baseline"}
SPLITS = {"train_full": "n_full", "train_weak": "n_weak", "valid": "n_valid"}

PER_LAYER_SPANS = {
    "synthvol.load_dataset": "synthvol.load_dataset_s",
    "detector.propose": "detector.propose_s",
    "detector.supervised_examples": "detector.supervised_examples_s",
    "detector.supervised_loss": "detector.supervised_loss_s",
    "weaklik.lobe_fit_step": "weaklik.lobe_fit_step_s",
    "em.supervised_pass": "em.supervised_pass_s",
    "em.filter": "em.filter_s",
    "em.conflict_matrix": "em.conflict_matrix_s",
    "em.estep": "em.estep_s",
    "em.posterior": "em.posterior_s",
    "em.mstep": "em.mstep_s",
    "em.validation": "em.validation_s",
    "froc.froc": "froc.froc_s",
}
PER_LAYER_CALLS = {
    "detector.propose": "detector.propose_calls",
    "detector.supervised_loss": "detector.supervised_loss_calls",
    "weaklik.lobe_fit_step": "weaklik.lobe_fit_step_calls",
    "em.supervised_pass": "em.supervised_passes",
    "em.filter": "em.filter_calls",
    "em.estep": "em.estep_scans",
    "em.posterior": "em.posterior_calls",
    "em.validation": "em.validation_sweeps",
}


class Run(NamedTuple):
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    log: Path


class BenchError(RuntimeError):
    """A set-up step failed; no result can be reported."""


class Cli:
    """Runs weakem CLI commands in child processes before a shared deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.env = {**os.environ, **THREADS, "PYTHONPATH": str(SRC),
                    "PYTHONDONTWRITEBYTECODE": "1"}
        self.logs = 0

    def run(self, args, trace: Path | None = None) -> Run:
        """Run one command to its end; wall and CPU time, peak RSS, exit code, log."""
        entry = ["-m", "weakem.cli"] if trace is None else [str(BENCH / "traced_cli.py"),
                                                             str(trace), "--"]
        self.logs += 1
        log = self.work / f"cli-{self.logs}.log"
        remaining = DEADLINE_S - (time.perf_counter() - STARTED)
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *entry, *map(str, args)], cwd=ROOT,
                                    env=self.env, stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(remaining, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, log)

    def must(self, args, trace: Path | None = None) -> None:
        run = self.run(args, trace)
        if run.code != 0:
            raise BenchError(f"weakem {args[0]} exited {run.code}:\n"
                             f"{run.log.read_text()[-2000:]}")


def write_config(path: Path, spec: dict, seed: int) -> Path:
    path.write_text(json.dumps({**spec, "data_seed": seed}, indent=1), encoding="utf-8")
    return path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def curve_summary(path: Path):
    """(seven sensitivities, average) from the summary row of an eval curve CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        row = [r for r in csv.reader(fh) if r and r[0] == "summary"][-1]
    values = [float(v) for v in row[1:]]
    return values[:-1], values[-1]


def final_froc(metrics_csv: Path) -> float:
    with open(metrics_csv, newline="", encoding="utf-8") as fh:
        return float(list(csv.DictReader(fh))[-1]["froc"])


def weak_labels_used(metrics_csv: Path) -> int:
    with open(metrics_csv, newline="", encoding="utf-8") as fh:
        return sum(int(r["weak_labels_used"]) for r in csv.DictReader(fh))


class Workload:
    """Set-up, timed command and outputs of one workload in one work directory."""

    def __init__(self, name: str, seed: int, work: Path, cli: Cli):
        self.name, self.seed, self.work, self.cli = name, seed, work, cli
        self.generated: list[tuple[Path, dict]] = []  # (split directory, its config)
        self.setup_traces: list[Path] = []
        self.attempted = self.failed = 0  # timed commands

    def generate(self, spec: dict, subdir: str, traced: bool, seed: int) -> Path:
        out = self.work / subdir
        config = write_config(self.work / f"{subdir}.json", spec, seed)
        trace = self.work / f"{subdir}-generate.trace.json" if traced else None
        self.cli.must(["generate", "--config", config, "--out", out], trace)
        if trace:
            self.setup_traces.append(trace)
        self.generated.append((out, spec))
        return out

    def setup(self, traced: bool) -> None:
        if self.name in TRAIN_MODES:
            self.data = self.generate(TRAIN_32, "data", traced, self.seed)
            self.config = self.work / "data.json"
            self.mode = TRAIN_MODES[self.name]
            self.checkpoint = self.data / f"checkpoint_{self.mode}_seed0.json"
            self.metrics = self.data / f"metrics_{self.mode}_seed0.csv"
            self.valid = self.data / "valid.wem"
        else:
            ckpt_dir = self.generate(CHECKPOINT_32, "ckpt", traced, CHECKPOINT_DATA_SEED)
            self.cli.must(["train", "--config", self.work / "ckpt.json", "--out", ckpt_dir])
            self.checkpoint = ckpt_dir / "checkpoint_baseline_seed0.json"
            self.valid = self.generate(EVAL_64, "eval64", traced, self.seed) / "valid.wem"

    def command(self, tag: str) -> list:
        if self.name in TRAIN_MODES:
            return ["train", "--config", self.config, "--out", self.data, "--mode", self.mode]
        return ["eval", self.checkpoint, self.valid, "--out", self.work / f"curve-{tag}"]

    def result_files(self, tag: str) -> list[Path]:
        """The files the timed command writes, which must repeat byte for byte."""
        if self.name in TRAIN_MODES:
            return [self.checkpoint, self.metrics]
        return [self.work / f"curve-{tag}" / f"{self.checkpoint.stem}_froc.csv"]

    def keep_results(self, tag: str) -> list[Path]:
        """The files the timed command tagged ``tag`` wrote, moved aside where
        the next run would overwrite them."""
        if self.name not in TRAIN_MODES:
            return self.result_files(tag)
        kept = []
        for path in self.result_files(tag):
            kept.append(path.replace(path.with_name(f"{tag}-{path.name}")))
        return kept


def check_outputs(wl: Workload, program_froc: float, program_sens, report: list) -> None:
    """Split counts, the FROC oracle and the NMS properties."""
    import numpy as np
    from weakem import detector, em, synthvol
    for out, spec in wl.generated:
        gen = spec["generator"]
        for split, key in SPLITS.items():
            scans = synthvol.load_dataset(out / f"{split}.wem")
            checks.check_split(f"{out.name}/{split}", [len(s.truth) for s in scans],
                               spec[key], gen.get("count_min", 1), gen.get("count_max", 3))
    report.append("check split counts: ok")

    params, cfg, _ = em.load_checkpoint(wl.checkpoint)
    scans = synthvol.load_dataset(wl.valid)
    n_nms = len(scans) if wl.name in TRAIN_MODES else NMS_SCANS_64
    detections, truths = [], []
    for i, scan in enumerate(scans):
        vol = scan.volume
        axes = [np.arange(lo, hi, cfg.stride) for lo, hi in zip(vol.lung_lo, vol.lung_hi)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 3)
        scales = params.detector.scales
        boxes = np.column_stack([np.repeat(pts, len(scales), axis=0),
                                 np.tile(scales, len(pts))]).astype(np.float64)
        logits = detector.grid_logits(vol, params.detector, cfg.stride).ravel()
        kept = checks.greedy_nms(boxes, logits, cfg.logit_threshold, cfg.nms_iou)
        if i < n_nms:
            ids = {tuple(b): k for k, b in enumerate(boxes.tolist())}
            program = em.scan_detections(vol, params, cfg, scan_id=i)
            checks.check_nms(boxes, logits,
                             [ids[(d.box.x, d.box.y, d.box.z, d.box.diameter)] for d in program],
                             [d.score for d in program], cfg.logit_threshold, cfg.nms_iou,
                             f"scan {i}: ")
        detections.extend((i, tuple(boxes[k, :3]), float(detector.sigmoid(float(logits[k]))))
                          for k in kept)
        truths.append([(t.center, t.radius) for t in scan.truth])
    report.append(f"check NMS properties on {n_nms} of {len(scans)} validation scans: ok")
    naive = checks.naive_froc(detections, truths)
    checks.check_froc(naive, program_froc, "weakem eval", program_sens)
    report.append(f"check FROC oracle: naive recount {100 * naive[1]:.4f} = program: ok")


def check_counts(wl: Workload, trace: dict, metrics_csv: Path | None) -> None:
    """Counts the traced run saw agree with counts from independent paths."""
    calls = {k: v["calls"] for k, v in trace["spans"].items()}
    if wl.name in TRAIN_MODES:
        sched = TRAIN_32["em"]
        weak = wl.mode != "baseline"
        fraction = json.loads(wl.checkpoint.read_text())["config"]["weak_fraction"]
        per_epoch = max(1, int(fraction * TRAIN_32["n_weak"])) if weak else 0
        expected = {"em.supervised_pass": sched["init_epochs"] + sched["epochs"],
                    "em.estep": sched["epochs"] * per_epoch,
                    "em.posterior": weak_labels_used(metrics_csv),
                    "em.validation": sched["epochs"]}
    else:
        expected = {"em.supervised_pass": 0, "em.estep": 0, "em.posterior": 0,
                    "em.validation": 1}
    for name, want in expected.items():
        checks.check_equal(f"traced {name} calls", calls.get(name, 0), want)


def per_layer(wl: Workload, trace: dict, traced_s: float, untraced_s: float) -> dict:
    spans, counts = trace["spans"], trace["counts"]

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    generated = 0.0
    for path in wl.setup_traces:
        generated += json.loads(path.read_text())["spans"].get(
            "synthvol.generate_scan", {}).get("self_s", 0.0)
    out = {"synthvol.generate_scan_s": (generated, "s")}
    out.update({metric: (self_s(span), "s") for span, metric in PER_LAYER_SPANS.items()})
    out.update({metric: (calls(span), "count") for span, metric in PER_LAYER_CALLS.items()})
    passes = calls("em.supervised_pass")
    out["em.halvings_per_pass"] = (
        ratio(counts.get("sgd_step_in:em.supervised_pass", 0) - passes, passes), "count/pass")
    out["em.proposals_kept_per_scan"] = (
        ratio(counts.get("filter_kept", 0), calls("em.filter")), "count/scan")
    out["em.posterior_top_weight"] = (
        ratio(counts.get("posterior_top_weight_sum", 0.0), calls("em.posterior")), "ratio")
    out["em.pseudo_label_hit_rate"] = (
        ratio(counts.get("inferred_hits", 0), counts.get("inferred_boxes", 0)), "ratio")
    out["froc.detections"] = (counts.get("froc_detections", 0), "count")
    out["cli.self_s"] = (traced_s - trace["top_level_s"], "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def run_workload(wl: Workload, seconds: float, traced: bool, report: list) -> dict:
    """Set-up, timed runs and output checks; returns the metrics. Raises
    CheckFailed when an output is wrong and BenchError when set-up fails."""
    wl.setup(traced)
    setup_s = time.perf_counter() - STARTED
    runs, results = [], []
    started = time.perf_counter()
    while True:
        tag = ("untraced", "traced")[wl.attempted] if traced else f"run{wl.attempted}"
        trace = wl.work / "run.trace.json" if tag == "traced" else None
        run = wl.cli.run(wl.command(tag), trace)
        wl.attempted += 1
        if run.code != 0:
            wl.failed += 1
            report.append(f"timed command exited {run.code}: {run.log.read_text()[-2000:]}")
            return {}
        runs.append(run)
        results.append(wl.keep_results(tag))
        if wl.attempted == 2 if traced else time.perf_counter() - started >= seconds:
            break
    report.append("timed runs: " + ", ".join(
        f"{r.wall_s:.3f} s ({r.cpu_s:.3f} s CPU) / {r.peak_rss_mb:.1f} MB" for r in runs))

    for later in results[1:]:
        for a, b in zip(results[0], later):
            checks.check_equal(f"sha256 of {b.name}", sha256(b), sha256(a))
    if len(results) > 1:
        report.append(f"check {len(results)} runs wrote byte-identical outputs: ok")
    if wl.name in TRAIN_MODES:
        checkpoint, metrics_csv = results[-1]
        shutil.copyfile(checkpoint, wl.checkpoint)
        froc = final_froc(metrics_csv)
        wl.cli.must(["eval", wl.checkpoint, wl.valid, "--out", wl.work / "curve"])
        sens, avg = curve_summary(wl.work / "curve" / f"{wl.checkpoint.stem}_froc.csv")
        checks.check_equal("FROC of weakem eval on the saved checkpoint vs the metrics CSV",
                           avg, froc)
        report.append("check FROC by two paths (metrics CSV, weakem eval): ok")
    else:
        metrics_csv = None
        sens, froc = curve_summary(results[-1][0])
    check_outputs(wl, froc, sens, report)
    for path in [wl.checkpoint] + ([] if wl.name in TRAIN_MODES else results[-1]):
        report.append(f"fingerprint: {path.name} sha256 {sha256(path)}")

    if traced:
        trace = json.loads((wl.work / "run.trace.json").read_text())
        check_counts(wl, trace, metrics_csv)
        report.append("check traced call counts against the schedule and metrics CSV: ok")
        return per_layer(wl, trace, runs[1].wall_s, runs[0].wall_s)
    return {"setup_s": (setup_s, "s"),
            "run_s": (statistics.median(r.wall_s for r in runs), "s"),
            "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in runs), "MB"),
            "froc": (100.0 * froc, "%")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="weakem benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weakem" / "cli.py").is_file():
        print(f"error: no weakem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    wl = Workload(args.workload, args.seed, work, Cli(work))
    report: list[str] = []
    try:
        metrics = run_workload(wl, args.seconds, bool(args.trace), report)
        correct = wl.failed < wl.attempted
    except checks.CheckFailed as exc:
        report.append(f"CHECK FAILED: {exc}")
        metrics, correct = {}, False
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import numpy
    import scipy
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")
    print("\n".join(report))
    print(json.dumps({"correct": correct, "attempted": wl.attempted, "failed": wl.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
