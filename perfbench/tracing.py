"""Span tracer for the traced benchmark run.

Spans are recorded around public fountainkit names, wrapped from outside
the program: each span has a name, start, end, parent and operation id.
Every span is folded on exit into a per-name aggregate of calls, total
time and self time (total minus the time of its child spans).  Raw spans
are kept in memory only for the operations marked `keep` and are written
out when the run ends.

Wrapped names are looked up when the tracer is installed.  A name that a
later version of fountainkit no longer has is reported as a missing
target, and every per-layer metric that depends on it alone is reported
as absent; nothing else changes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from collections import Counter
from time import perf_counter_ns

from workloads import COUNTER_FIELDS

#: Raw spans kept in memory for the trace file; aggregates are unbounded.
SPAN_CAP = 100_000

#: Decoder classes whose ingest/decode methods are wrapped, by layer name.
DECODER_CLASSES = {
    "core": ("fountainkit.core", "LinearDecoder"),
    "lt": ("fountainkit.lt", "PeelingDecoder"),
    "raptor": ("fountainkit.raptor", "RaptorDecoder"),
    "triangular": ("fountainkit.triangular", "BitSubstitutionDecoder"),
}

#: Target name of the codec session's packet source.
STREAM_FACTORY = "fountainkit.bec.CodecSession.stream_factory"


class Tracer:
    """Nested spans with per-name aggregates and capture counters."""

    def __init__(self):
        self.agg: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent, op, name, start_ns, end_ns)
        self.spans_dropped = 0
        self.keep = False
        self.op_id = -1
        self.missing: set[str] = set()
        self.decoder_counters = Counter()  # filled by decode(), read per op
        self._stack: list[list] = []  # [name, start_ns, child_ns, span_id]
        self._next_id = 0
        self._undo: list[tuple] = []
        self._t0 = perf_counter_ns()

    # -- spans ---------------------------------------------------------

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, perf_counter_ns(), 0, self._next_id])

    def exit(self) -> None:
        end = perf_counter_ns()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        if self.keep:
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (sid, parent[3] if parent else 0, self.op_id, name,
                     start - self._t0, end - self._t0)
                )
            else:
                self.spans_dropped += 1

    def span(self, name: str, fn, *args, **kwargs):
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def snapshot(self) -> tuple[dict, Counter]:
        return {k: list(v) for k, v in self.agg.items()}, Counter(self.counts)

    # -- installation --------------------------------------------------

    def _lookup(self, module: str, path: str):
        """(owner, attribute, value) of `module.path`, or None if missing."""
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            return owner, attr, getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.add(f"{module}.{path}")
            return None

    def _patch(self, module: str, path: str, make_wrapper) -> None:
        found = self._lookup(module, path)
        if found is None:
            return
        owner, attr, original = found
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._undo.append((owner, attr, original))

    def _wrap(self, module: str, path: str, name: str, after=None) -> None:
        """Trace calls of `module.path` as spans called `name`; `after`
        reads counts from the arguments and result inside the span."""
        target = f"{module}.{path}"

        def make(original):
            def wrapper(*args, **kwargs):
                self.enter(name)
                try:
                    out = original(*args, **kwargs)
                    if after is not None:
                        try:
                            after(args, out)
                        except AttributeError:
                            self.missing.add(target)
                    return out
                finally:
                    self.exit()
            return wrapper

        self._patch(module, path, make)

    def install(self) -> None:
        """Wrap every traced name; missing names are only recorded."""
        counts = self.counts

        def count_bytes(_args, out):
            counts["linalg.addmul_bytes"] += len(out)

        self._wrap("fountainkit.core", "addmul_bytes", "linalg.addmul", count_bytes)
        self._wrap("fountainkit.linalg", "addmul_bytes", "linalg.addmul", count_bytes)
        self._wrap("fountainkit.linalg", "scale_bytes", "linalg.addmul", count_bytes)
        self._wrap("fountainkit.prng", "SplitMix64.sample_distinct", "prng.sample_distinct")

        def attempt(_args, out):
            counts["raptor.attempts"] += 1
            counts["raptor.row_xor_done"] += out.counter.row_xor_count
            if out.success:
                counts["raptor.successes"] += 1
                counts["raptor.inactivated"] += len(out.inactivated)

        self._wrap("fountainkit.raptor", "inactivation_decode", "raptor.inactivation", attempt)
        self._wrap("fountainkit.raptor", "solve", "raptor.solve")

        def serialized(args, out):
            counts["wire.frames_serialized"] += len(args[0])
            counts["wire.bytes"] += len(out)

        self._wrap("fountainkit.cli", "write_stream", "wire.serialize", serialized)
        self._patch("fountainkit.cli", "read_stream", self._read_stream_wrapper)

        def traced_session(original):
            def wrapper(*args, **kwargs):
                return self.trace_codec(original(*args, **kwargs))
            return wrapper

        self._patch("fountainkit.cli", "make_codec_session", traced_session)

        for layer, (module, cls) in DECODER_CLASSES.items():
            self._wrap(module, f"{cls}.ingest", f"{layer}.ingest")
            self._wrap(module, f"{cls}.decode", f"{layer}.decode", self._decoded(layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _read_stream_wrapper(self, original):
        def wrapper(data, *args, **kwargs):
            self.counts["wire.bytes"] += len(data)
            frames = iter(original(data, *args, **kwargs))
            while True:
                self.enter("wire.parse")
                try:
                    frame = next(frames)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.counts["wire.frames_parsed"] += 1
                yield frame
        return wrapper

    def _decoded(self, layer: str):
        """Capture a decoder's own tallies when its block is taken."""
        counts = self.counts

        def after(args, _out):
            dec = args[0]
            counter = dec.counter
            for field in COUNTER_FIELDS.values():
                self.decoder_counters[field] += getattr(counter, field)
            if layer == "core":
                counts["core.accepted"] += dec.accepted_count
            elif layer == "lt":
                counts["lt.redundant"] += dec.redundant_count
                counts["lt.seen"] += dec.packets_seen
            elif layer == "raptor":
                counts["raptor.row_xor_reported"] += counter.row_xor_count
            elif layer == "triangular":
                counts["triangular.bits"] += dec.decoded_bits
                counts["triangular.row_xor"] += counter.row_xor_count

        return after

    def trace_codec(self, codec):
        """The codec session with its packet source traced as
        `<scheme>.encode`: one span for the factory call, one per packet."""
        try:
            factory = codec.stream_factory
            name = codec.name
            dataclasses.fields(codec)
        except (AttributeError, TypeError):
            self.missing.add(STREAM_FACTORY)
            return codec
        span = f"{name}.encode"
        packets = f"{name}.packets"

        def stream():
            it = self.span(span, factory)
            while True:
                self.enter(span)
                try:
                    packet = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                self.counts[packets] += 1
                yield packet

        return dataclasses.replace(codec, stream_factory=stream)
