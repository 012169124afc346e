"""Workload schedules and the operations they run against fountainkit.

Every workload is a closed loop with one client: the next operation
starts when the previous one has finished.  An operation is either one
multicast session (a server sending one block to CLIENTS receivers over
an erasure channel) or one file round trip through the CLI (`encode`,
then `decode`, then a byte comparison).  Operations follow a fixed cycle
of steps; the inputs of operation i (block or file bytes, codec seed,
channel seed) are drawn from the workload seed and i alone, so the same
seed always gives the same operations.

fountainkit is used only through its public entry points:
`bec.make_codec_session`, `bec.Session.run`, `bec.run_arq_baseline` and
`cli.main`.
"""

from __future__ import annotations

import dataclasses
import io
import random
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

LOSS = 0.2
CLIENTS = 4

COUNTER_FIELDS = {
    "linalg.row_xor": "row_xor_count",
    "linalg.sym_mul": "symbol_mul_count",
    "linalg.resolve": "resolve_count",
    "linalg.row_scale": "row_scale_count",
    "linalg.row_swap": "row_swap_count",
}


@dataclass(frozen=True)
class Step:
    """One scheduled operation: a scheme and its size.

    Sessions send k packets of `packet_len` bytes; file round trips
    encode `file_bytes` random bytes at the given k (the CLI picks B).
    """

    scheme: str
    k: int
    packet_len: int = 0
    file_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[Step, ...]
    warmup: tuple[Step, ...]


def _xor_cycle() -> tuple[Step, ...]:
    # lt, raptor and triangular each take about a third of the cycle's
    # time; one uncoded ARQ session runs beside every lt session.
    lt, raptor = Step("lt", 1024, 1024), Step("raptor", 256, 1024)
    arq, tri = Step("arq", 1024, 1024), Step("triangular", 16, 64)
    return (lt, arq, raptor) * 3 + (tri,)


WORKLOADS = {
    w.name: w
    for w in (
        # The GF(256) row kernel does almost all the work, on the encoder
        # and the decoder side alike.
        Workload(
            "multicast-gf256",
            (Step("rl", 16, 1024), Step("rs", 16, 1024)),
            (Step("rl", 8, 16), Step("rs", 8, 16)),
        ),
        # XOR-only codecs: peeling, inactivation, bit substitution and
        # splitmix64 neighbour regeneration; the GF(256) kernel is unused.
        Workload(
            "multicast-xor",
            _xor_cycle(),
            (Step("lt", 16, 16), Step("raptor", 16, 16),
             Step("triangular", 4, 4), Step("arq", 8, 16)),
        ),
        # The only workload where the wire format and the CLI run; small
        # packets (B = 257) make the per-frame cost show.
        Workload(
            "file-stream",
            (Step("lt", 4096, file_bytes=1 << 20),
             Step("raptor", 1024, file_bytes=1 << 18)),
            (Step("lt", 32, file_bytes=4096), Step("raptor", 32, file_bytes=4096)),
        ),
    )
}


def op_rng(seed: int, index: int) -> random.Random:
    """Input stream of operation `index` (string seeds hash with SHA-512,
    so the stream does not depend on the interpreter's hash seed)."""
    return random.Random(f"{seed}/{index}")


@dataclass
class OpResult:
    scheme: str
    attempted: int
    failed: int = 0
    wall_s: float = 0.0
    encode_s: float = 0.0  # packet source / `encode` command
    decode_s: float = 0.0  # rest of a coded session / `decode` command
    source_bytes: int = 0  # bytes given to an encoder
    delivered_bytes: int = 0  # verified bytes at receivers that decoded
    transmissions: int = 0  # server sends (sessions only)
    k: int = 0
    overheads: list[float] = field(default_factory=list)
    counters: Optional[dict[str, int]] = None
    error: Optional[str] = None

    @property
    def coded(self) -> bool:
        return self.scheme != "arq"


def timed_source(codec):
    """The codec session with its packet source timed: the factory call
    and every packet drawn.  Returns the session and a one-item list
    holding the seconds spent encoding."""
    factory = codec.stream_factory
    spent = [0.0]

    def stream():
        start = perf_counter()
        packets = factory()
        spent[0] += perf_counter() - start
        while True:
            start = perf_counter()
            packet = next(packets, None)
            spent[0] += perf_counter() - start
            if packet is None:
                return
            yield packet

    return dataclasses.replace(codec, stream_factory=stream), spent


class Runner:
    """Runs operations against one loaded copy of fountainkit.

    With a tracer, every operation is a top-level span and the codec's
    packet source is traced too.
    """

    def __init__(self, fk, workdir: Path, tracer=None):
        self.fk = fk
        self.workdir = workdir
        self.tracer = tracer
        self.last_s = 0.0

    def run(self, step: Step, rng: random.Random, index: int = -1) -> OpResult:
        self.last_s = 0.0
        if self.tracer is not None:
            self.tracer.op_id = index
        if step.file_bytes:
            return self._round_trip(step, rng)
        return self._session(step, rng)

    def _timed(self, span: str, fn, *args):
        """fn(*args), as span `span` when tracing.  Its wall time is left
        in `last_s`, also when it raises."""
        start = perf_counter()
        try:
            if self.tracer is None:
                return fn(*args)
            return self.tracer.span(span, fn, *args)
        finally:
            self.last_s = perf_counter() - start

    def _session(self, step: Step, rng: random.Random) -> OpResult:
        bec, core = self.fk.bec, self.fk.core
        k, b = step.k, step.packet_len
        data = rng.randbytes(k * b)
        block = core.InputBlock(tuple(data[i * b : (i + 1) * b] for i in range(k)))
        channel = bec.ChannelSpec(LOSS, CLIENTS, seed=rng.getrandbits(64))
        codec_seed = rng.getrandbits(64)
        res = OpResult(step.scheme, attempted=CLIENTS, k=k)
        try:
            if step.scheme == "arq":
                report = self._timed("bec.arq", bec.run_arq_baseline, block, channel)
            else:
                codec = bec.make_codec_session(step.scheme, block, seed=codec_seed)
                if self.tracer is not None:
                    codec = self.tracer.trace_codec(codec)
                codec, spent = timed_source(codec)
                session = bec.Session(codec, channel)
                report = self._timed("bec.session", session.run)
                res.source_bytes = k * b
                res.encode_s = spent[0]
                res.decode_s = self.last_s - spent[0]
            res.wall_s = self.last_s
            res.failed = len(report.failed_clients)
            res.transmissions = report.total_transmissions
            res.overheads = [e for e in report.per_client_overhead if e is not None]
            res.counters = {
                name: getattr(report.op_counter, attr)
                for name, attr in COUNTER_FIELDS.items()
            }
        except Exception:  # any failure counts against the operation
            res.wall_s = self.last_s
            res.failed = CLIENTS
            res.error = traceback.format_exc()
        res.delivered_bytes = k * b * (CLIENTS - res.failed)
        return res

    def _cli(self, span: str, argv: list[str]) -> tuple[Optional[int], str]:
        """Exit code and captured output of one in-process CLI command."""
        sink = io.StringIO()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = self._timed(span, self.fk.cli.main, argv)
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            sink.write(traceback.format_exc())
        return code, sink.getvalue()

    def _round_trip(self, step: Step, rng: random.Random) -> OpResult:
        data = rng.randbytes(step.file_bytes)
        src = self.workdir / "input.bin"
        stream = self.workdir / "stream.bin"
        out = self.workdir / "output.bin"
        src.write_bytes(data)
        stream.unlink(missing_ok=True)
        out.unlink(missing_ok=True)
        seed = rng.getrandbits(64)
        res = OpResult(step.scheme, attempted=1, k=step.k, source_bytes=len(data))
        if self.tracer is not None:
            self.tracer.decoder_counters.clear()
            self.tracer.enter("cli.round_trip")
        try:
            code, log = self._cli("cli.encode", [
                "encode", str(src), str(stream), "--scheme", step.scheme,
                "--k", str(step.k), "--seed", str(seed),
            ])
            res.encode_s = self.last_s
            if code == 0:
                code, log = self._cli("cli.decode", ["decode", str(stream), str(out)])
                res.decode_s = self.last_s
        finally:
            if self.tracer is not None:
                self.tracer.exit()
        res.wall_s = res.encode_s + res.decode_s
        if code != 0:
            res.error = f"exit code {code}: {log.strip()}"
        elif not out.is_file() or out.read_bytes() != data:
            res.error = "decoded file differs from the input"
        if res.error is None:
            res.delivered_bytes = len(data)
        else:
            res.failed = 1
        if self.tracer is not None:
            res.counters = {
                name: self.tracer.decoder_counters[attr]
                for name, attr in COUNTER_FIELDS.items()
            }
        return res
