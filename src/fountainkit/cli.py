"""Command-line front end: encode/decode files, run channel simulations,
and emit benchmark CSV tables.

File encoding prepends the original byte length as a u64 before splitting
into k packets of B bytes (zero-padding the tail), so a decoded block is
self-trimming and the stream file stays a plain concatenation of frames.

Benchmark CSV schema, one row per (scheme, k, loss_prob) aggregate:

    scheme,k,B,N,loss_prob,trials,mean_overhead,p95_overhead,fail_rate,
    row_xor,sym_mul,wall_ms,seed

mean/p95 overhead pool the per-client decode overheads across trials;
fail_rate is the fraction of client-sessions that never decoded; row_xor
and sym_mul are mean per-session totals.  Every command is deterministic
given (config, seed); wall_ms is written as 0 unless --timing is passed,
since measured times would break byte-stable output.

Exit codes: 0 success, 1 decode failure, 2 configuration error, 3 I/O
error.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from typing import Optional, Sequence

from .bec import (
    SCHEMES,
    ChannelSpec,
    Session,
    decoder_for,
    make_codec_session,
    run_arq_baseline,
)
from .core import DecodeStatus, InputBlock
from .errors import PacketFormatError, SchemeMismatchError, SingularMatrixError
from .gf import GF2
from .prng import SplitMix64
from .rl import rl_success_probability
from .wire import MAX_EXTRA_REDUNDANT, read_stream, write_stream

EXIT_OK = 0
EXIT_DECODE_FAILURE = 1
EXIT_CONFIG = 2
EXIT_IO = 3

CSV_COLUMNS = (
    "scheme,k,B,N,loss_prob,trials,mean_overhead,p95_overhead,"
    "fail_rate,row_xor,sym_mul,wall_ms,seed"
)

_MASK64 = (1 << 64) - 1


def _fnv64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class ConfigError(Exception):
    pass


# -- encode / decode ------------------------------------------------------


def _block_from_file(data: bytes, k: int, b: Optional[int]) -> InputBlock:
    framed = len(data).to_bytes(8, "big") + data
    if b is None:
        b = max(1, math.ceil(len(framed) / k))
    if k * b < len(framed):
        raise ConfigError(
            f"k*B = {k * b} bytes cannot hold the {len(framed)}-byte framed input"
        )
    framed = framed.ljust(k * b, b"\x00")
    return InputBlock(tuple(framed[i * b : (i + 1) * b] for i in range(k)))


def _file_from_block(block: InputBlock) -> bytes:
    data = b"".join(block.packets)
    length = int.from_bytes(data[:8], "big")
    if length > len(data) - 8:
        raise PacketFormatError(
            f"embedded length {length} exceeds decoded block of {len(data) - 8} bytes"
        )
    return data[8 : 8 + length]


def _codec_kwargs(args) -> dict:
    return dict(
        n=args.n,
        systematic=args.systematic,
        field_order=args.field_order if args.field_order else 256,
        sparsity=args.sparsity,
        soliton_c=args.soliton_c,
        soliton_delta=args.soliton_delta,
        redundant_count=args.redundant,
        row_weight=args.row_weight,
    )


def cmd_encode(args) -> int:
    if args.k < 1:
        raise ConfigError("--k must be at least 1")
    data = _read_file(args.input)
    if not data:
        raise ConfigError("input file is empty")
    if args.redundant is not None and args.redundant > args.k + MAX_EXTRA_REDUNDANT:
        raise ConfigError(
            f"--redundant {args.redundant} exceeds k + {MAX_EXTRA_REDUNDANT}, "
            "the most a stream frame carries"
        )
    block = _block_from_file(data, args.k, args.b)
    codec = make_codec_session(args.scheme, block, seed=args.seed, **_codec_kwargs(args))
    if codec.rateless:
        count = args.count
        if count is None:
            # Generous default: peeling decoders want real overhead at
            # small k, surplus frames cost only file size.
            count = 3 * block.k + 8
        elif count < 1:
            raise ConfigError("--count must be at least 1")
        stream = codec.stream_factory()
        packets = [next(stream) for _ in range(count)]
    else:
        packets = list(codec.stream_factory())
    _write_file(args.output, write_stream(packets))
    print(f"wrote {len(packets)} frames (k={block.k}, B={block.packet_len})")
    return EXIT_OK


def _shortfall(decoder, k: int) -> str:
    """What a decoder that cannot decode has reached: its rank over the
    k inputs or, for the peeling decoders, which track no rank, how many
    of the k inputs it recovered."""
    if hasattr(decoder, "rank"):
        return f"rank {decoder.rank} below k={k}"
    return f"{decoder.decoded_count} of k={k} inputs recovered"


def cmd_decode(args) -> int:
    """Build the decoder from the first frame, then feed it frames as they
    are parsed until it can decode.  A first frame whose k*B exceeds the
    stream's length is refused before any decoder is built.  Every frame
    must share the first frame's stream context; frames after the
    decodable point are never parsed.  Frames that contradict earlier
    ones (`Decoder.contradictions`) fail the decode."""
    data = _read_file(args.input)
    frames = read_stream(data)
    first = next(frames, None)
    if first is None:
        print("decode failed: stream holds no frames", file=sys.stderr)
        return EXIT_DECODE_FAILURE
    if first.k * first.packet_len > len(data):
        print(
            f"decode failed: k*B = {first.k * first.packet_len} payload bytes "
            f"cannot come from a {len(data)}-byte stream",
            file=sys.stderr,
        )
        return EXIT_DECODE_FAILURE
    decoder = decoder_for(first)
    context = first.context
    for i, frame in enumerate(itertools.chain([first], frames)):
        if frame.context != context:
            raise SchemeMismatchError(
                f"frame {i} is {frame.context}, but the stream starts with {context}"
            )
        if decoder.ingest(frame) is not DecodeStatus.NEEDS_MORE:
            break
    else:
        print(
            f"decode failed: {_shortfall(decoder, first.k)}",
            file=sys.stderr,
        )
        return EXIT_DECODE_FAILURE
    if decoder.contradictions:
        raise SchemeMismatchError(
            f"{decoder.contradictions} frames contradict earlier ones; "
            "the stream is mixed or corrupted"
        )
    block = decoder.decode()
    _write_file(args.output, _file_from_block(block))
    print(f"recovered {args.output}")
    return EXIT_OK


# -- simulate / bench -----------------------------------------------------


def _trial_block(k: int, b: int, rng: SplitMix64) -> InputBlock:
    return InputBlock(tuple(bytes(rng.below_many(256, b)) for _ in range(k)))


def _run_trials(scheme, k, b, loss, clients, trials, seed, args):
    overheads: list[float] = []
    failures = 0
    total_clients = 0
    row_xor = sym_mul = 0
    wall = 0.0
    config_rng = SplitMix64(seed ^ _fnv64(f"{scheme}:{k}:{b}:{loss}:{clients}"))
    for _ in range(trials):
        trial_seed = config_rng.next_u64()
        rng = SplitMix64(trial_seed)
        block = _trial_block(k, b, rng)
        channel = ChannelSpec(loss, clients, seed=trial_seed)
        start = time.perf_counter()
        if scheme == "arq":
            report = run_arq_baseline(block, channel)
        else:
            codec = make_codec_session(
                scheme, block, seed=rng.next_u64(), **_codec_kwargs(args)
            )
            report = Session(codec, channel).run()
        wall += time.perf_counter() - start
        total_clients += clients
        failures += len(report.failed_clients)
        overheads.extend(e for e in report.per_client_overhead if e is not None)
        row_xor += report.op_counter.row_xor_count
        sym_mul += report.op_counter.symbol_mul_count
    overheads.sort()
    mean = sum(overheads) / len(overheads) if overheads else float("nan")
    p95 = overheads[max(0, math.ceil(0.95 * len(overheads)) - 1)] if overheads else float("nan")
    return {
        "scheme": scheme,
        "k": k,
        "B": b,
        "N": clients,
        "loss_prob": loss,
        "trials": trials,
        "mean_overhead": mean,
        "p95_overhead": p95,
        "fail_rate": failures / total_clients if total_clients else float("nan"),
        "row_xor": row_xor / trials if trials else 0.0,
        "sym_mul": sym_mul / trials if trials else 0.0,
        "wall_ms": wall * 1000.0,
        "seed": seed,
    }


def _format_row(row: dict, timing: bool) -> str:
    wall = row["wall_ms"] if timing else 0.0
    return ",".join(
        [
            row["scheme"],
            str(row["k"]),
            str(row["B"]),
            str(row["N"]),
            f"{row['loss_prob']:.4f}",
            str(row["trials"]),
            f"{row['mean_overhead']:.6f}",
            f"{row['p95_overhead']:.6f}",
            f"{row['fail_rate']:.6f}",
            f"{row['row_xor']:.2f}",
            f"{row['sym_mul']:.2f}",
            f"{wall:.3f}" if timing else "0",
            str(row["seed"]),
        ]
    )


def _emit_csv(rows: list[dict], args) -> None:
    rows.sort(key=lambda r: (r["scheme"], r["k"], r["loss_prob"], r["N"]))
    text = "\n".join([CSV_COLUMNS] + [_format_row(r, args.timing) for r in rows]) + "\n"
    if args.output:
        _write_file(args.output, text.encode())
    else:
        sys.stdout.write(text)


def cmd_simulate(args) -> int:
    rows = [
        _run_trials(
            args.scheme, args.k, args.b, loss, args.clients, args.trials, args.seed, args
        )
        for loss in args.loss
    ]
    _emit_csv(rows, args)
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = []
    for scheme in args.schemes:
        for k in args.k_values:
            for loss in args.loss:
                rows.append(
                    _run_trials(
                        scheme, k, args.b, loss, args.clients, args.trials, args.seed, args
                    )
                )
    _emit_csv(rows, args)
    return EXIT_OK


# -- selftest -------------------------------------------------------------


def cmd_selftest(args) -> int:
    """Fast built-in sanity checks; the full pytest suite is authoritative."""
    from .linalg import FieldMatrix, invert

    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1

    m = FieldMatrix.from_rows(GF2, [[1, 1, 0], [0, 1, 1], [1, 1, 1]])
    check(
        "binary worked-example inverse",
        invert(m).to_rows() == [[0, 1, 1], [1, 1, 1], [1, 0, 1]],
    )
    check("rank law q=2 k=3", abs(rl_success_probability(2, 3) - 0.328125) < 1e-12)

    rng = SplitMix64(1)
    block = _trial_block(8, 5, rng)
    for scheme in SCHEMES:
        codec = make_codec_session(scheme, block, seed=7)
        report = Session(codec, ChannelSpec(0.2, 2, seed=9)).run()
        check(f"{scheme} lossy session decodes", report.all_decoded)
        stream = codec.stream_factory()
        packets = [next(stream) for _ in range(8)]
        round_trip = list(read_stream(write_stream(packets)))
        check(f"{scheme} wire round trip", round_trip == packets)
    return EXIT_OK if failures == 0 else EXIT_DECODE_FAILURE


# -- plumbing -------------------------------------------------------------


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IOFailure(str(exc)) from exc


def _write_file(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IOFailure(str(exc)) from exc


class IOFailure(Exception):
    pass


def _add_scheme_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="PRNG seed")
    p.add_argument("--n", type=int, default=None, help="fixed-rate packet count (rs)")
    p.add_argument("--systematic", action="store_true", help="systematic rs variant")
    p.add_argument("--field-order", type=int, default=None, choices=(2, 256),
                   dest="field_order",
                   help="rl coefficient field (default 256)")
    p.add_argument("--sparsity", type=float, default=1.0, help="rl nonzero probability")
    p.add_argument("--c", type=float, default=0.1, dest="soliton_c",
                   help="robust Soliton c (lt/raptor)")
    p.add_argument("--delta", type=float, default=0.5, dest="soliton_delta",
                   help="robust Soliton delta (lt/raptor)")
    p.add_argument("--redundant", type=int, default=None,
                   help="raptor parity packet count (default ceil(0.05k)+4)")
    p.add_argument("--row-weight", type=int, default=None, dest="row_weight",
                   help="raptor parity row weight (default min(3, k))")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fountainkit",
        description="Erasure/fountain codec toolkit and channel benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a file into a packet stream")
    enc.add_argument("input")
    enc.add_argument("output")
    enc.add_argument("--scheme", choices=SCHEMES, required=True)
    enc.add_argument("--k", type=int, required=True)
    enc.add_argument("--b", type=int, default=None, help="packet payload bytes")
    enc.add_argument("--count", type=int, default=None,
                     help="packets to emit for rateless schemes")
    _add_scheme_params(enc)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="recover a file from a packet stream")
    dec.add_argument("input")
    dec.add_argument("output")
    dec.set_defaults(func=cmd_decode)

    sim = sub.add_parser("simulate", help="run erasure-channel sessions")
    sim.add_argument("--scheme", choices=SCHEMES + ("arq",), required=True)
    sim.add_argument("--k", type=int, required=True)
    sim.add_argument("--b", type=int, default=4)
    sim.add_argument("--loss", type=float, nargs="+", default=[0.2])
    sim.add_argument("--clients", type=int, default=1)
    sim.add_argument("--trials", type=int, default=1)
    sim.add_argument("--output", default=None)
    sim.add_argument("--timing", action="store_true",
                     help="write measured wall_ms (breaks byte determinism)")
    _add_scheme_params(sim)
    sim.set_defaults(func=cmd_simulate)

    ben = sub.add_parser("bench", help="benchmark sweep to CSV")
    ben.add_argument("--schemes", nargs="+", choices=SCHEMES + ("arq",), required=True)
    ben.add_argument("--k-values", type=int, nargs="+", required=True, dest="k_values")
    ben.add_argument("--b", type=int, default=4)
    ben.add_argument("--loss", type=float, nargs="+", default=[0.0])
    ben.add_argument("--clients", type=int, default=1)
    ben.add_argument("--trials", type=int, default=10)
    ben.add_argument("--output", default=None)
    ben.add_argument("--timing", action="store_true",
                     help="write measured wall_ms (breaks byte determinism)")
    _add_scheme_params(ben)
    ben.set_defaults(func=cmd_bench)

    st = sub.add_parser("selftest", help="quick built-in sanity checks")
    st.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IOFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PacketFormatError, SchemeMismatchError, SingularMatrixError) as exc:
        print(f"decode failed: {exc}", file=sys.stderr)
        return EXIT_DECODE_FAILURE
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
