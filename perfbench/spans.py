"""In-memory span tracing around the package's public functions.

The tracer replaces a public name where ``blindcrb.harness`` and
``blindcrb.cli`` bind it with a wrapper that records a span (name, parent
span, start, end) and counts NumericalErrors by layer. Nothing inside the
package is edited; ``restore`` puts the original bindings back. The span
name's first component is the package module (the layer) that defines the
function.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter

from blindcrb import NumericalError, cli, harness

# (module object, attribute) -> span name
TRACED = (
    (cli, "main", "cli.main"),
    (cli, "run_experiment", "harness.run_experiment"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "draw_channel", "harness.draw_channel"),
    (harness, "make_precoder", "model.make_precoder"),
    (harness, "generate_symbols", "model.generate_symbols"),
    (harness, "synthesize_observation", "model.synthesize_observation"),
    (harness, "subspace_estimate", "estimator.subspace_estimate"),
    (harness, "resolve_ambiguity", "estimator.resolve_ambiguity"),
    (harness, "crb_fast", "crb_blind.crb_fast"),
    (harness, "crb_zp_per_block", "crb_blind.crb_zp_per_block"),
)


class Tracer:
    """Records spans as [name, parent index or -1, start, end]."""

    def __init__(self):
        self.spans = []
        self.numerical_errors = Counter()
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, stack, errors = self.spans, self._stack, self.numerical_errors
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except NumericalError:
                errors[layer] += 1
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def install(self):
        for module, attr, name in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its child spans."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end), c in zip(self.spans, child)]

    def layer_metrics(self) -> dict:
        """Calls, total and self seconds and per-call milliseconds by name."""
        by_name = {}
        for span, self_s in zip(self.spans, self.self_times()):
            entry = by_name.setdefault(span[0], {"calls": 0, "s": 0.0,
                                                 "self_s": 0.0, "ms": []})
            entry["calls"] += 1
            entry["s"] += span[3] - span[2]
            entry["self_s"] += self_s
            entry["ms"].append(1e3 * (span[3] - span[2]))
        for entry in by_name.values():
            entry["ms_p50"] = statistics.median(entry.pop("ms"))
        return by_name

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for span_id, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "parent": parent, "start": start,
                                     "end": end}) + "\n")
