"""Run the weakem CLI with spans around the layer functions it calls.

    python3 bench/traced_cli.py TRACE.json -- <weakem cli arguments>

``train_em``, ``evaluate_froc`` and ``cmd_train``/``cmd_eval`` look the
layer functions up by their module-global names at call time, so replacing
those names with timing wrappers traces a run without touching the program.
Spans nest: a span's self time is its duration minus the time of the spans
it encloses. Totals are kept in memory and written to TRACE.json when the
command returns. Counters that need the program's own data (the hit rate of
inferred boxes) are computed after the wrapped call returns and never
change what the program sees.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from weakem import cli, em
from weakem.froc import Detection

froc_mod = em.froc_mod  # the module object em calls froc through


class Tracer:
    """Per-name self time and call counts of nested spans, plus counters."""

    def __init__(self):
        self.stack: list[list] = []  # [span name, time of enclosed spans]
        self.spans: dict[str, list] = {}  # name -> [self seconds, calls]
        self.counts: dict[str, float] = {}
        self.top_level_s = 0.0
        self.replaced: list[tuple] = []  # (module, attribute, original function)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _replace(self, module, attr: str, wrap) -> None:
        fn = getattr(module, attr)
        self.replaced.append((module, attr, fn))
        setattr(module, attr, wrap(fn))

    def restore(self) -> None:
        """Put back every function this tracer replaced."""
        for module, attr, fn in reversed(self.replaced):
            setattr(module, attr, fn)
        self.replaced.clear()

    def span(self, module, attr: str, name: str, on_result=None) -> None:
        def wrap(fn):
            def traced(*args, **kwargs):
                frame = [name, 0.0]
                self.stack.append(frame)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    self.stack.pop()
                    total = self.spans.setdefault(name, [0.0, 0])
                    total[0] += duration - frame[1]
                    total[1] += 1
                    if self.stack:
                        self.stack[-1][1] += duration
                    else:
                        self.top_level_s += duration
                if on_result is not None:
                    on_result(args, result)
                return result
            return traced
        self._replace(module, attr, wrap)

    def counter(self, module, attr: str, key_of) -> None:
        # counts calls, attributed to the enclosing span, without timing them
        def wrap(fn):
            def counted(*args, **kwargs):
                self.count(key_of(self.stack[-1][0] if self.stack else ""))
                return fn(*args, **kwargs)
            return counted
        self._replace(module, attr, wrap)

    def to_dict(self) -> dict:
        return {"spans": {k: {"self_s": v[0], "calls": v[1]} for k, v in self.spans.items()},
                "counts": self.counts, "top_level_s": self.top_level_s}


def install(tracer: Tracer) -> None:
    """Wrap the layer functions the CLI and the EM loop call."""
    def kept(args, result):
        tracer.count("filter_kept", len(result))

    def top_weight(args, result):
        tracer.count("posterior_top_weight_sum", float(result.weights.max()))

    def detections(args, result):
        tracer.count("froc_detections", len(args[0]))

    def hit_rate(args, result):
        # share of inferred boxes that froc.match credits to the hidden truth;
        # read after the E-step returns, never fed back into training
        scan, weak_boxes = args[0], result[2]
        tracer.count("inferred_boxes", len(weak_boxes))
        tracer.count("inferred_hits", sum(
            froc_mod.match(Detection(0, box, 1.0), scan.truth) is not None
            for _, box in weak_boxes))

    tracer.span(cli, "generate_scan", "synthvol.generate_scan")
    tracer.span(cli, "load_dataset", "synthvol.load_dataset")
    tracer.span(cli, "evaluate_froc", "em.validation")
    tracer.span(em, "evaluate_froc", "em.validation")
    tracer.span(em, "propose", "detector.propose")
    tracer.span(em, "supervised_examples", "detector.supervised_examples")
    tracer.span(em, "supervised_loss", "detector.supervised_loss")
    tracer.span(em, "lobe_fit_step", "weaklik.lobe_fit_step")
    tracer.span(em, "_supervised_pass", "em.supervised_pass")
    tracer.span(em, "_scan_filtered", "em.filter", kept)
    tracer.span(em, "_conflict_matrix", "em.conflict_matrix")
    tracer.span(em, "_weak_scan_estep", "em.estep", hit_rate)
    tracer.span(em, "posterior", "em.posterior", top_weight)
    tracer.span(em, "_weak_batch_m_step", "em.mstep")
    tracer.span(froc_mod, "froc", "froc.froc", detections)
    # one sgd_step per tried step size: a pass with k halvings calls it k + 1 times
    tracer.counter(em, "sgd_step", lambda parent: f"sgd_step_in:{parent}")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced_cli.py TRACE.json -- <weakem arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    code = cli.main(argv[2:])
    Path(argv[0]).write_text(json.dumps(tracer.to_dict(), indent=1, sort_keys=True),
                             encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
