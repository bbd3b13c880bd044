"""Quick tests of the benchmark's output checks and tracer.

Each check passes on a correct output and fails on a corrupted one. The
benchmark's own NMS and FROC recount are compared with the program's on
random inputs, and a traced training run must leave the model unchanged.
"""

import numpy as np
import pytest

import checks
import traced_cli
from weakem import em
from weakem.detector import Proposal
from weakem.em import EmConfig, filter_proposals, train_em
from weakem.froc import Detection, froc
from weakem.synthvol import GeneratorConfig, NoduleBox, attach_weak_labels, generate_scan


def random_anchors(rng, n=60):
    centers = rng.integers(0, 12, size=(n, 3)).astype(np.float64)
    scales = rng.choice([3.0, 5.0], size=n)
    return np.column_stack([centers, scales]), rng.normal(0.0, 2.0, size=n)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_split_check_counts_scans_and_truths():
    checks.check_split("valid", [1, 3, 2], 3, 1, 3)
    with pytest.raises(checks.CheckFailed, match="2 scans"):
        checks.check_split("valid", [1, 3], 3, 1, 3)
    with pytest.raises(checks.CheckFailed, match="outside 1..3"):
        checks.check_split("valid", [1, 4, 2], 3, 1, 3)


@pytest.mark.parametrize("seed", range(5))
def test_own_nms_equals_program_filter(seed):
    rng = np.random.default_rng(seed)
    boxes, logits = random_anchors(rng)
    proposals = [Proposal(NoduleBox(*map(float, b)), float(l), i)
                 for i, (b, l) in enumerate(zip(boxes, logits))]
    cfg = EmConfig(logit_threshold=-1.0, nms_iou=0.1)
    program = [p.anchor_id for p in filter_proposals(proposals, cfg)]
    assert checks.greedy_nms(boxes, logits, -1.0, 0.1) == program
    checks.check_nms(boxes, logits, program, sigmoid(logits[program]), -1.0, 0.1)


def test_nms_check_fails_on_each_corruption():
    rng = np.random.default_rng(7)
    boxes, logits = random_anchors(rng)
    kept = checks.greedy_nms(boxes, logits, -1.0, 0.1)
    scores = list(sigmoid(logits[kept]))
    below = [i for i in range(len(logits)) if logits[i] < -1.0][0]
    overlapping = next(i for i in range(len(boxes)) if i not in kept and logits[i] >= -1.0)
    corruptions = {
        "below sigmoid": (kept + [below], scores + [float(sigmoid(logits[below]))]),
        "overlaps an earlier": (kept + [overlapping],
                                scores + [float(sigmoid(logits[overlapping]))]),
        "dropped without": (kept[:-1], scores[:-1]),
    }
    for message, (ids, reported) in corruptions.items():
        with pytest.raises(checks.CheckFailed, match=message):
            checks.check_nms(boxes, logits, ids, reported, -1.0, 0.1)
    with pytest.raises(checks.CheckFailed, match="greedy NMS"):
        checks.check_nms(boxes, logits, kept[::-1], scores[::-1], -1.0, 0.1)


def random_detections(rng, n_scans=6):
    truths = [[NoduleBox(*rng.uniform(4, 28, 3), rng.uniform(6, 9))
               for _ in range(rng.integers(1, 4))] for _ in range(n_scans)]
    dets = []
    for scan, ts in enumerate(truths):
        for _ in range(rng.integers(0, 12)):
            if ts and rng.random() < 0.4:
                t = ts[rng.integers(len(ts))]
                center = np.asarray(t.center) + rng.normal(0, 1.5, 3)
            else:
                center = rng.uniform(0, 32, 3)
            score = float(np.round(rng.random(), 1))  # ties across detections
            dets.append(Detection(scan, NoduleBox(*center, 6.0), score))
    return dets, truths


@pytest.mark.parametrize("seed", range(5))
def test_naive_froc_equals_program(seed):
    dets, truths = random_detections(np.random.default_rng(seed))
    program = froc(dets, truths)
    naive = checks.naive_froc([(d.scan_id, d.box.center, d.score) for d in dets],
                              [[(t.center, t.radius) for t in ts] for ts in truths])
    checks.check_froc(naive, program.average, "froc", program.sensitivities)


def test_froc_check_fails_on_each_corruption():
    dets, truths = random_detections(np.random.default_rng(3))
    program = froc(dets, truths)
    naive = checks.naive_froc([(d.scan_id, d.box.center, d.score) for d in dets],
                              [[(t.center, t.radius) for t in ts] for ts in truths])
    sens = list(program.sensitivities)
    with pytest.raises(checks.CheckFailed, match="naive recount"):
        checks.check_froc(naive, program.average + 1e-6, "froc")
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_froc(naive, program.average, "froc", sens[:-1] + [1.5])
    with pytest.raises(checks.CheckFailed, match="falls"):
        checks.check_froc(naive, program.average, "froc", [1.0] + sens[1:])
    with pytest.raises(checks.CheckFailed, match="operating points"):
        checks.check_froc(naive, program.average, "froc", sens[:-1])
    with pytest.raises(checks.CheckFailed, match="two paths"):
        checks.check_equal("two paths", program.average, program.average + 1e-9)


def tiny_data():
    gen = GeneratorConfig(dims=(16, 16, 16), diameter_min=5.0, diameter_max=6.0,
                          count_max=2)
    rng = np.random.default_rng(0)
    scans = [attach_weak_labels(generate_scan(i, gen), gen.weak_sigma, gen.weak_mu, rng)
             for i in range(10)]
    return scans[:3], scans[3:7], scans[7:]


def test_tracing_leaves_training_unchanged_and_counts_the_schedule():
    d_full, d_weak, d_val = tiny_data()
    cfg = EmConfig(init_epochs=2, epochs=2, inference="sampling", weak_fraction=0.5)
    plain = train_em(d_full, d_weak, d_val, cfg, rng=0)
    original = em.supervised_loss
    tracer = traced_cli.Tracer()
    traced_cli.install(tracer)
    try:
        traced = train_em(d_full, d_weak, d_val, cfg, rng=0)
    finally:
        tracer.restore()
    assert traced.params.to_dict() == plain.params.to_dict()
    assert traced.history == plain.history
    calls = {k: v["calls"] for k, v in tracer.to_dict()["spans"].items()}
    assert calls["em.supervised_pass"] == cfg.init_epochs + cfg.epochs
    assert calls["em.estep"] == cfg.epochs * 2
    assert calls["em.posterior"] == sum(m.weak_labels_used for m in plain.history)
    assert calls["em.validation"] == cfg.epochs
    assert tracer.counts["inferred_boxes"] >= tracer.counts.get("inferred_hits", 0)
    assert em.supervised_loss is original
