"""Temporal segmentation: split recordings into j equal parts.

With divisors {1, 2, 3, 4, 5, 20} each recording yields 35 segments
(1+2+3+4+5+20). Remainder samples (T mod j) are discarded from the tail
so all segments of one divisor have equal length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data_model import MIN_DURATION_S

DIVISORS = (1, 2, 3, 4, 5, 20)


@dataclass(frozen=True)
class SegmentSpec:
    """Chunk index/j (1-based index), rendered as e.g. "17/20"."""

    divisor: int
    index: int

    def __post_init__(self):
        if self.divisor not in DIVISORS:
            raise ValueError("divisor must be one of %s, got %r"
                             % (DIVISORS, self.divisor))
        if not 1 <= self.index <= self.divisor:
            raise ValueError("index %d out of range 1..%d"
                             % (self.index, self.divisor))

    @property
    def chunk_id(self):
        return "%d/%d" % (self.index, self.divisor)

    @classmethod
    def from_chunk_id(cls, chunk_id):
        idx, div = chunk_id.split("/")
        return cls(divisor=int(div), index=int(idx))


def segment(rec, spec):
    """Extract one equal-part segment of a recording.

    Segment i of divisor j covers samples [(i-1)*floor(T/j), i*floor(T/j)).
    Segments must be at least MIN_DURATION_S (2 s) long, the shortest
    signal feature extraction accepts.
    """
    seg_len = rec.n_samples // spec.divisor
    min_len = MIN_DURATION_S * rec.sample_rate_hz
    if seg_len < min_len:
        raise ValueError("segment length %d below minimum %d samples (j=%d)"
                         % (seg_len, int(min_len), spec.divisor))
    start = (spec.index - 1) * seg_len
    return rec.with_samples(rec.samples[:, start:start + seg_len])
