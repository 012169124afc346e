"""Per-layer metrics of the traced run.

Counts (`count` unit) are totals over the first cycle of operations, the
reference window, so they repeat exactly for a given seed.  Times and
rates are over every traced operation.  `*_us` times per call include
the call's child spans; `*_self_ms` times exclude them.  A metric whose
wrapped names are all missing from fountainkit is reported as absent
(value 0, named in the run record).
"""

from __future__ import annotations

from collections import Counter

from tracing import STREAM_FACTORY
from workloads import COUNTER_FIELDS

_FK = "fountainkit."
ADDMUL = (_FK + "core.addmul_bytes", _FK + "linalg.addmul_bytes", _FK + "linalg.scale_bytes")
LINEAR = _FK + "core.LinearDecoder"
PEELING = _FK + "lt.PeelingDecoder"
RAPTOR = _FK + "raptor.RaptorDecoder"
TRIANGULAR = _FK + "triangular.BitSubstitutionDecoder"
INACTIVATION = (_FK + "raptor.inactivation_decode",)
SAMPLE = (_FK + "prng.SplitMix64.sample_distinct",)
WIRE = (_FK + "cli.write_stream", _FK + "cli.read_stream")

#: Top-level span of each kind of operation.
OP_SPANS = ("bec.session", "bec.arq", "cli.round_trip")

#: (name, unit, better, wrapped names it needs: absent when all missing)
LAYER_METRICS = (
    ("linalg.addmul_calls", "count", "lower", ADDMUL),
    ("linalg.addmul_ms", "ms", "lower", ADDMUL),
    ("linalg.addmul_MBps", "MB/s", "higher", ADDMUL),
    ("linalg.row_xor", "count", "lower", ()),
    ("linalg.sym_mul", "count", "lower", ()),
    ("linalg.resolve", "count", "lower", ()),
    ("linalg.row_scale", "count", "lower", ()),
    ("linalg.row_swap", "count", "lower", ()),
    ("core.ingest_us", "us", "lower", (LINEAR + ".ingest",)),
    ("core.decode_ms", "ms", "lower", (LINEAR + ".decode",)),
    ("core.innovative_ratio", "ratio", "higher", (LINEAR + ".decode",)),
    ("rs.encode_us", "us", "lower", (STREAM_FACTORY,)),
    ("rl.encode_us", "us", "lower", (STREAM_FACTORY,)),
    ("lt.encode_us", "us", "lower", (STREAM_FACTORY,)),
    ("lt.ingest_us", "us", "lower", (PEELING + ".ingest",)),
    ("lt.redundant_ratio", "ratio", "lower", (PEELING + ".decode",)),
    ("raptor.encode_us", "us", "lower", (STREAM_FACTORY,)),
    ("raptor.ingest_us", "us", "lower", (RAPTOR + ".ingest",)),
    ("raptor.attempts_per_session", "count", "lower", INACTIVATION),
    ("raptor.useful_attempt_ratio", "ratio", "higher", INACTIVATION),
    ("raptor.row_xor_done", "count", "lower", INACTIVATION),
    ("raptor.row_xor_reported", "count", "lower", (RAPTOR + ".decode",)),
    ("raptor.core_solve_ms", "ms", "lower", (_FK + "raptor.solve",)),
    ("raptor.inactivated", "count", "lower", INACTIVATION),
    ("triangular.encode_us", "us", "lower", (STREAM_FACTORY,)),
    ("triangular.ingest_us", "us", "lower", (TRIANGULAR + ".ingest",)),
    ("triangular.us_per_bit", "us", "lower", (TRIANGULAR + ".decode",)),
    ("triangular.row_xor", "count", "lower", (TRIANGULAR + ".decode",)),
    ("prng.sample_distinct_calls", "count", "lower", SAMPLE),
    ("prng.sample_distinct_ms", "ms", "lower", SAMPLE),
    ("prng.regens_per_packet", "ratio", "lower", SAMPLE),
    ("wire.frames", "count", "lower", WIRE),
    ("wire.serialize_us", "us", "lower", WIRE[:1]),
    ("wire.parse_us", "us", "lower", WIRE[1:]),
    ("wire.MBps", "MB/s", "higher", WIRE),
    ("cli.encode_self_ms", "ms", "lower", ()),
    ("cli.decode_self_ms", "ms", "lower", ()),
    ("bec.self_ms", "ms", "lower", ()),
    ("bec.tx_per_block", "ratio", "lower", ()),
    ("bec.overhead_mean", "ratio", "lower", ()),
    ("trace.op_ms", "ms", "lower", ()),
    ("trace.overhead_pct", "%", "lower", ()),
)


def ratio(a: float, b: float) -> float:
    """a / b, or 0 when nothing was measured."""
    return a / b if b else 0.0


def delivery_shape(results) -> tuple[float, float] | None:
    """(tx_per_block, overhead_mean) of the sessions among `results`:
    the mean of server transmissions / k over sessions, and the mean
    decode overhead (packets used / k - 1) over clients that decoded."""
    sessions = [r for r in results if r.transmissions]
    if not sessions:
        return None
    overheads = [e for r in sessions for e in r.overheads]
    return (
        sum(r.transmissions / r.k for r in sessions) / len(sessions),
        ratio(sum(overheads), len(overheads)),
    )


class _Spans:
    """Seconds and calls of the named spans in one aggregate."""

    def __init__(self, agg: dict, counts: Counter):
        self.agg = agg
        self.counts = counts

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0, 0, 0))[0]

    def total(self, name: str) -> float:
        return self.agg.get(name, (0, 0, 0))[1] / 1e9

    def self_time(self, name: str) -> float:
        return self.agg.get(name, (0, 0, 0))[2] / 1e9


def layer_values(tracer, window, results, window_results, overhead_pct) -> dict:
    """Every per-layer metric, by name.

    `window` is the tracer's (aggregate, counts) snapshot after the first
    cycle, `results` every traced operation and `window_results` the
    operations of the first cycle.
    """
    run = _Spans(tracer.agg, tracer.counts)
    win = _Spans(*window)
    c, wc = run.counts, win.counts
    ops = len(results)
    raptor_ops = sum(r.scheme == "raptor" for r in results)
    coded_tx = sum(r.transmissions for r in window_results if r.coded)
    v = {
        "linalg.addmul_calls": win.calls("linalg.addmul"),
        "linalg.addmul_ms": ratio(run.total("linalg.addmul") * 1e3, ops),
        "linalg.addmul_MBps": ratio(c["linalg.addmul_bytes"] / 1e6, run.total("linalg.addmul")),
        "core.ingest_us": ratio(run.total("core.ingest") * 1e6, run.calls("core.ingest")),
        "core.decode_ms": ratio(run.total("core.decode") * 1e3, run.calls("core.decode")),
        "core.innovative_ratio": ratio(c["core.accepted"], run.calls("core.ingest")),
        "lt.redundant_ratio": ratio(c["lt.redundant"], c["lt.seen"]),
        "raptor.attempts_per_session": ratio(
            wc["raptor.attempts"], sum(r.scheme == "raptor" for r in window_results)
        ),
        "raptor.useful_attempt_ratio": ratio(wc["raptor.successes"], wc["raptor.attempts"]),
        "raptor.row_xor_done": wc["raptor.row_xor_done"],
        "raptor.row_xor_reported": wc["raptor.row_xor_reported"],
        "raptor.core_solve_ms": ratio(run.total("raptor.solve") * 1e3, raptor_ops),
        "raptor.inactivated": ratio(wc["raptor.inactivated"], wc["raptor.successes"]),
        "triangular.us_per_bit": ratio(run.total("triangular.ingest") * 1e6, c["triangular.bits"]),
        "triangular.row_xor": wc["triangular.row_xor"],
        "prng.sample_distinct_calls": win.calls("prng.sample_distinct"),
        "prng.sample_distinct_ms": ratio(run.total("prng.sample_distinct") * 1e3, ops),
        "prng.regens_per_packet": ratio(
            win.calls("prng.sample_distinct"), coded_tx + wc["wire.frames_serialized"]
        ),
        "wire.frames": wc["wire.frames_serialized"] + wc["wire.frames_parsed"],
        "wire.serialize_us": ratio(run.total("wire.serialize") * 1e6, c["wire.frames_serialized"]),
        "wire.parse_us": ratio(run.total("wire.parse") * 1e6, c["wire.frames_parsed"]),
        "wire.MBps": ratio(
            c["wire.bytes"] / 1e6, run.total("wire.serialize") + run.total("wire.parse")
        ),
        "cli.encode_self_ms": ratio(run.self_time("cli.encode") * 1e3, run.calls("cli.encode")),
        "cli.decode_self_ms": ratio(run.self_time("cli.decode") * 1e3, run.calls("cli.decode")),
        "bec.self_ms": ratio(run.self_time("bec.session") * 1e3, run.calls("bec.session")),
        "trace.op_ms": ratio(sum(run.total(n) for n in OP_SPANS) * 1e3, ops),
        "trace.overhead_pct": overhead_pct,
    }
    for name in COUNTER_FIELDS:
        v[name] = sum(r.counters[name] for r in window_results if r.counters)
    for scheme in ("rs", "rl", "lt", "raptor", "triangular"):
        v[f"{scheme}.encode_us"] = ratio(
            run.total(f"{scheme}.encode") * 1e6, c[f"{scheme}.packets"]
        )
    for layer in ("lt", "raptor", "triangular"):
        v[f"{layer}.ingest_us"] = ratio(
            run.total(f"{layer}.ingest") * 1e6, run.calls(f"{layer}.ingest")
        )
    v["bec.tx_per_block"], v["bec.overhead_mean"] = delivery_shape(window_results) or (0.0, 0.0)
    return v


def absent_metrics(missing: set[str]) -> list[str]:
    """Metrics none of whose wrapped names could be traced."""
    return [
        name for name, _unit, _better, targets in LAYER_METRICS
        if targets and all(t in missing for t in targets)
    ]
