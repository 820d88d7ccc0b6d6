"""In-memory spans and right-hand-side counters for the traced run.

A span records name, start, end and parent.  The layer of a span is the part
of its name before the first dot (``solver.solve`` belongs to ``solver``).
Drift and diffusion calls are too many to span one by one (about a million on
the ensemble), so :meth:`Tracer.counted` wraps a model's callables in
counters that also charge their time to the innermost open span; that time is
the ``systems`` layer and is excluded from the span's self time.

A disabled tracer records nothing and returns models unwrapped, so the same
code path gives the untraced reference for the tracing overhead.
"""

import dataclasses
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

_ID, _NAME, _PARENT, _START, _END, _RHS = range(6)


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans = []            # [id, name, parent id, start ns, end ns, rhs ns]
        self._stack = []
        self.calls = Counter()     # (tag, "drift" | "diffusion") -> calls
        self.rhs_ns = Counter()    # (tag, "drift" | "diffusion") -> ns inside the call

    def span(self, name: str):
        if not self.enabled:
            return nullcontext()
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1][_ID] if self._stack else None
        rec = [len(self.spans), name, parent, perf_counter_ns(), 0, 0]
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec[_END] = perf_counter_ns()
            self._stack.pop()

    def counted(self, model, tag: str):
        """The model with drift/diffusion wrapped in counters keyed by tag."""
        if not self.enabled:
            return model

        def wrap(fn, kind):
            key = (tag, kind)
            calls, rhs_ns, stack = self.calls, self.rhs_ns, self._stack

            def call(t, y):
                t0 = perf_counter_ns()
                out = fn(t, y)
                dt = perf_counter_ns() - t0
                calls[key] += 1
                rhs_ns[key] += dt
                if stack:
                    stack[-1][_RHS] += dt
                return out

            return call

        return dataclasses.replace(
            model, drift=wrap(model.drift, "drift"),
            diffusion=wrap(model.diffusion, "diffusion"),
        )

    # ---- read-out -------------------------------------------------------

    def durations(self, name: str) -> list:
        """Wall seconds of every span with this exact name, in order."""
        return [(s[_END] - s[_START]) / 1e9 for s in self.spans if s[_NAME] == name]

    def self_seconds(self) -> dict:
        """Self time of every span: duration minus children and RHS time."""
        child_ns = Counter()
        for s in self.spans:
            if s[_PARENT] is not None:
                child_ns[s[_PARENT]] += s[_END] - s[_START]
        return {
            s[_ID]: (s[_END] - s[_START] - child_ns[s[_ID]] - s[_RHS]) / 1e9
            for s in self.spans
        }

    def self_by_name(self, name: str) -> list:
        own = self.self_seconds()
        return [own[s[_ID]] for s in self.spans if s[_NAME] == name]

    def layer_self_seconds(self) -> dict:
        """Self time summed per layer; RHS time is the ``systems`` layer."""
        own = self.self_seconds()
        layers = Counter()
        for s in self.spans:
            layers[s[_NAME].split(".", 1)[0]] += own[s[_ID]]
        layers["systems"] += sum(self.rhs_ns.values()) / 1e9
        return dict(layers)

    def to_json(self) -> dict:
        return {
            "spans": [
                {"id": s[_ID], "name": s[_NAME], "parent": s[_PARENT],
                 "start_ns": s[_START], "end_ns": s[_END], "rhs_ns": s[_RHS]}
                for s in self.spans
            ],
            "calls": {f"{t}.{k}": n for (t, k), n in sorted(self.calls.items())},
            "rhs_s": {f"{t}.{k}": ns / 1e9 for (t, k), ns in sorted(self.rhs_ns.items())},
        }
