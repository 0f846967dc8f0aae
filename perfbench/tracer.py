"""In-memory span tracer that wraps eegsweep functions from outside.

Each wrapped name is patched where its caller looks it up (for example
``cli.load_cohort``, because ``cli`` imports ``load_cohort`` by name), so
the program itself is not modified. A span records its name, its parent
span, wall start/end and process CPU start/end; spans stay in memory
until ``dump`` writes them. A name that no longer exists is recorded in
``missing`` instead of failing the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent, t0, t1, cpu0, cpu1]
        self.counts = Counter()
        self.missing = []
        self.context = {}        # values a wrapper hands to its children
        self._stack = []
        self._patches = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None,
                           time.process_time(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx):
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[5] = time.process_time()
        self._stack.pop()

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``name`` may be a callable taking (tracer, args, kwargs).
        ``before(tracer, args, kwargs)`` runs before the call and
        ``after(tracer, args, kwargs, result)`` after it; both feed counts.
        """
        label = "%s.%s" % (owner.__name__.rsplit(".", 1)[-1], attr)
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            idx = self.open(name(self, args, kwargs) if callable(name)
                            else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Per span name: (calls, total wall, self wall, total CPU)."""
        child_wall = [0.0] * len(self.spans)
        for name, parent, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child_wall[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        for i, (name, _, t0, t1, c0, c1) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - child_wall[i]
            entry[3] += c1 - c0
        return dict(out)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s",
                                  "cpu_start_s", "cpu_end_s"],
                       "spans": self.spans,
                       "counts": dict(self.counts),
                       "missing": self.missing}, fh)
