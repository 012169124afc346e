"""CLI: file round trips, erasure tolerance, exit codes, CSV determinism."""

import contextlib
import dataclasses
import functools
import io
import random
import struct
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fountainkit import cli
from fountainkit.cli import CSV_COLUMNS, main
from fountainkit.core import (
    CodedPacket,
    CoefficientVector,
    HeaderKind,
    RowIndex,
    SchemeId,
    SeedDegree,
    ShiftList,
)
from fountainkit.wire import MAGIC, VERSION, read_stream, serialize, write_stream


@pytest.fixture
def sample_file(tmp_path):
    rng = random.Random(1)
    path = tmp_path / "input.bin"
    path.write_bytes(bytes(rng.randrange(256) for _ in range(3001)))
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestEncodeDecode:
    @pytest.mark.parametrize("scheme", ["rs", "rl", "lt", "raptor", "triangular"])
    def test_round_trip(self, scheme, sample_file, tmp_path):
        stream = tmp_path / "stream.ec"
        out = tmp_path / "out.bin"
        assert run("encode", sample_file, stream, "--scheme", scheme, "--k", 12,
                   "--seed", 9) == 0
        assert run("decode", stream, out) == 0
        assert out.read_bytes() == sample_file.read_bytes()

    def test_single_byte_file(self, tmp_path):
        src = tmp_path / "one.bin"
        src.write_bytes(b"\xA7")
        stream = tmp_path / "one.ec"
        out = tmp_path / "one.out"
        assert run("encode", src, stream, "--scheme", "rs", "--k", 1, "--n", 3) == 0
        assert run("decode", stream, out) == 0
        assert out.read_bytes() == b"\xA7"

    def test_systematic_rs_decodes_without_its_first_k_frames(self, sample_file, tmp_path):
        # The frames record the systematic generator, so a plain decode of
        # the parity frames alone recovers the file.
        stream = tmp_path / "rs.ec"
        assert run("encode", sample_file, stream, "--scheme", "rs", "--k", 6,
                   "--systematic") == 0
        parity = tmp_path / "parity.ec"
        parity.write_bytes(write_stream(list(read_stream(stream.read_bytes()))[6:]))
        out = tmp_path / "parity.out"
        assert run("decode", parity, out) == 0
        assert out.read_bytes() == sample_file.read_bytes()

    def test_rs_survives_any_k_subset(self, sample_file, tmp_path):
        import itertools

        stream = tmp_path / "rs.ec"
        assert run("encode", sample_file, stream, "--scheme", "rs", "--k", 4,
                   "--n", 8) == 0
        packets = list(read_stream(stream.read_bytes()))
        assert len(packets) == 8
        rng = random.Random(2)
        subsets = rng.sample(list(itertools.combinations(range(8), 4)), 10)
        for subset in subsets:
            partial = tmp_path / "partial.ec"
            partial.write_bytes(write_stream([packets[i] for i in subset]))
            out = tmp_path / "partial.out"
            assert run("decode", partial, out) == 0
            assert out.read_bytes() == sample_file.read_bytes()

    def test_shuffled_stream_same_output(self, sample_file, tmp_path):
        stream = tmp_path / "rl.ec"
        assert run("encode", sample_file, stream, "--scheme", "rl", "--k", 6,
                   "--seed", 3) == 0
        packets = list(read_stream(stream.read_bytes()))
        random.Random(4).shuffle(packets)
        shuffled = tmp_path / "shuffled.ec"
        shuffled.write_bytes(write_stream(packets))
        out_a, out_b = tmp_path / "a.out", tmp_path / "b.out"
        assert run("decode", stream, out_a) == 0
        assert run("decode", shuffled, out_b) == 0
        assert out_a.read_bytes() == out_b.read_bytes() == sample_file.read_bytes()

    def test_encode_replay_bit_identical(self, sample_file, tmp_path):
        streams = []
        for name in ("s1.ec", "s2.ec"):
            path = tmp_path / name
            assert run("encode", sample_file, path, "--scheme", "lt", "--k", 20,
                       "--seed", 77) == 0
            streams.append(path.read_bytes())
        assert streams[0] == streams[1]

    def test_truncated_stream_fails_with_rank(self, sample_file, tmp_path, capsys):
        stream = tmp_path / "rl.ec"
        assert run("encode", sample_file, stream, "--scheme", "rl", "--k", 8,
                   "--count", 8, "--seed", 5) == 0
        packets = list(read_stream(stream.read_bytes()))
        short = tmp_path / "short.ec"
        short.write_bytes(write_stream(packets[:5]))
        out = tmp_path / "short.out"
        capsys.readouterr()
        # Five of eight frames cannot hold k*B payload bytes: refused up
        # front.  Padded out with repeats they reach the decoder, which
        # reports the rank it got to.
        assert run("decode", short, out) == 1
        assert "k*B" in capsys.readouterr().err
        short.write_bytes(write_stream(packets[:5] + packets[:3]))
        assert run("decode", short, out) == 1
        assert "rank 5 below k=8" in capsys.readouterr().err
        assert not out.exists()
        # Raptor's rank is over the k inputs, not over the k +
        # redundant_count intermediate slots (35 of those here).  The
        # peeling decoders track no rank: the bit decoder had resolved 26
        # bits but no whole input.
        for scheme, k, count, seed, kept, repeats, message in (
            ("raptor", 32, 40, 3, 30, 5, "rank 29 below k=32"),
            ("triangular", 8, 3 * 8 + 8, 0, 7, 3, "0 of k=8 inputs recovered"),
        ):
            assert run("encode", sample_file, stream, "--scheme", scheme, "--k", k,
                       "--count", count, "--seed", seed) == 0
            packets = list(read_stream(stream.read_bytes()))
            short.write_bytes(write_stream(packets[:kept] + packets[:repeats]))
            capsys.readouterr()
            assert run("decode", short, out) == 1
            assert message in capsys.readouterr().err
            assert not out.exists()


class TestExitCodes:
    def test_missing_input_is_io_error(self, tmp_path):
        assert run("encode", tmp_path / "nope.bin", tmp_path / "x.ec",
                   "--scheme", "rs", "--k", 2) == 3

    def test_bad_config_is_config_error(self, sample_file, tmp_path):
        # RS beyond the field capacity.
        assert run("encode", sample_file, tmp_path / "x.ec", "--scheme", "rs",
                   "--k", 2, "--n", 300) == 2

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_config_error(self, sample_file, tmp_path, capsys, k):
        assert run("encode", sample_file, tmp_path / "x.ec", "--scheme", "lt",
                   "--k", k) == 2
        assert "--k must be at least 1" in capsys.readouterr().err

    def test_empty_input_rejected(self, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert run("encode", empty, tmp_path / "x.ec", "--scheme", "rs", "--k", 2) == 2

    def test_garbage_stream_is_decode_failure(self, tmp_path):
        bad = tmp_path / "bad.ec"
        bad.write_bytes(b"\x00\x01\x02")
        assert run("decode", bad, tmp_path / "y.bin") == 1

    def test_selftest_passes(self):
        assert run("selftest") == 0


class TestCraftedFrames:
    @pytest.mark.parametrize(
        "scheme,k,b,header",
        [
            (SchemeId.RS, 300, 4, RowIndex(0)),
            (SchemeId.RS, 4, 4, RowIndex(255)),
            (SchemeId.RS, 4, 4, RowIndex(0xFFFFFFFF, systematic=True)),
            (SchemeId.TRIANGULAR, 2, 0, ShiftList((0, 1))),
            (SchemeId.RL, 0, 4, CoefficientVector(())),
            (SchemeId.LT, 0, 4, SeedDegree(1, 1)),
        ],
        ids=["rs-k300", "rs-row255", "rs-row2^32-1", "triangular-b0", "rl-k0", "lt-k0"],
    )
    def test_crafted_frame_is_decode_failure(self, scheme, k, b, header, tmp_path, capsys):
        # Frames no encoder writes, with parameters outside what their
        # scheme allows: refused as malformed input (exit 1), not as a
        # configuration error.
        payload = bytes(b + header.pad_bytes)
        stream = tmp_path / "crafted.ec"
        stream.write_bytes(serialize(CodedPacket(scheme, k, b, header, payload)))
        out = tmp_path / "crafted.out"
        capsys.readouterr()
        assert run("decode", stream, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("decode failed:")
        assert "rank" not in err
        assert not out.exists()


    def test_frame_whose_k_times_b_exceeds_the_stream_is_refused_up_front(
        self, tmp_path, capsys, monkeypatch
    ):
        # A 25-byte LT frame announcing k = 200,000 used to build a decoder
        # with 200,000 unknowns before failing for lack of packets.
        stream = tmp_path / "huge-k.ec"
        stream.write_bytes(
            serialize(CodedPacket(SchemeId.LT, 200_000, 1, SeedDegree(1, 1), b"\0"))
        )
        assert stream.stat().st_size == 25

        def no_decoder(frame):
            raise AssertionError("decoder built for an impossible stream")

        monkeypatch.setattr(cli, "decoder_for", no_decoder)
        capsys.readouterr()
        start = time.perf_counter()
        assert run("decode", stream, tmp_path / "huge-k.out") == 1
        assert time.perf_counter() - start < 0.5
        assert "k*B = 200000" in capsys.readouterr().err

    def test_raptor_frame_with_huge_redundant_count_is_malformed(self, tmp_path, capsys):
        # The precode used to be rebuilt from a u32 redundant_count:
        # 200,000 parity packets cost seconds and hundreds of MiB.
        frame = (
            struct.pack(">BBBIIBH", MAGIC, VERSION, SchemeId.RAPTOR, 1, 1,
                        HeaderKind.SEED_DEGREE, 24)
            + struct.pack(">QHQIH", 1, 1, 0, 200_000, 1)
            + b"\0"
        )
        stream = tmp_path / "huge-redundant.ec"
        stream.write_bytes(frame)
        capsys.readouterr()
        start = time.perf_counter()
        assert run("decode", stream, tmp_path / "huge-redundant.out") == 1
        assert time.perf_counter() - start < 0.5
        assert "redundant_count 200000 exceeds k + 64" in capsys.readouterr().err

    def test_encode_refuses_redundant_count_decode_would_refuse(
        self, sample_file, tmp_path, capsys
    ):
        stream, out = tmp_path / "r.ec", tmp_path / "r.out"
        assert run("encode", sample_file, stream, "--scheme", "raptor", "--k", 4,
                   "--redundant", 4 + 64, "--seed", 3) == 0
        assert run("decode", stream, out) == 0
        assert out.read_bytes() == sample_file.read_bytes()
        capsys.readouterr()
        too_many = tmp_path / "too-many.ec"
        assert run("encode", sample_file, too_many, "--scheme", "raptor", "--k", 4,
                   "--redundant", 4 + 65) == 2
        assert "--redundant 69 exceeds k + 64" in capsys.readouterr().err
        assert not too_many.exists()


class TestBench:
    def test_csv_schema_and_determinism(self, tmp_path, capsys):
        argv = ["bench", "--schemes", "rl", "arq", "--k-values", "8", "--loss",
                "0.0", "0.2", "--trials", "4", "--seed", "11"]
        assert run(*argv) == 0
        first = capsys.readouterr().out
        assert run(*argv) == 0
        second = capsys.readouterr().out
        assert first == second
        header, *rows = first.strip().split("\n")
        assert header == CSV_COLUMNS
        assert len(rows) == 4
        assert rows == sorted(rows)

    def test_output_file(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run("bench", "--schemes", "triangular", "--k-values", "6",
                   "--trials", "3", "--seed", "2", "--output", out) == 0
        assert out.read_text().startswith(CSV_COLUMNS)

    def test_rs_multiplies_lt_does_not(self, capsys):
        assert run("bench", "--schemes", "rs", "lt", "--k-values", "64",
                   "--loss", "0.0", "--trials", "2", "--seed", "3") == 0
        out = capsys.readouterr().out
        rows = {r.split(",")[0]: r.split(",") for r in out.strip().split("\n")[1:]}
        assert float(rows["rs"][10]) > 0
        assert float(rows["lt"][10]) == 0.0

    def test_simulate_single_config(self, capsys):
        assert run("simulate", "--scheme", "raptor", "--k", "12", "--loss", "0.1",
                   "--clients", "2", "--trials", "3", "--seed", "6") == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_COLUMNS)
        assert out.strip().split("\n")[1].startswith("raptor,12,")

    def test_lt_overhead_shrinks_with_k(self, capsys):
        assert run("bench", "--schemes", "lt", "--k-values", "20", "100", "1000",
                   "--b", "1", "--loss", "0.0", "--trials", "15", "--seed", "8") == 0
        out = capsys.readouterr().out
        rows = [r.split(",") for r in out.strip().split("\n")[1:]]
        means = {int(r[1]): float(r[6]) for r in rows}
        assert means[20] > means[100] > means[1000]


class TestMixedPacketLength:
    def test_mixed_b_stream_is_decode_failure(self, sample_file, tmp_path, capsys):
        # A GF(256) rl stream whose first frame has B = 152 and whose later
        # frames have B = 327 must be refused, not decoded or crashed on.
        frames = {}
        for b in (152, 327):
            stream = tmp_path / f"b{b}.ec"
            assert run("encode", sample_file, stream, "--scheme", "rl", "--k", 20,
                       "--b", b, "--seed", 5) == 0
            frames[b] = list(read_stream(stream.read_bytes()))
        mixed = tmp_path / "mixed.ec"
        mixed.write_bytes(write_stream(frames[152][:1] + frames[327]))
        out = tmp_path / "mixed.out"
        capsys.readouterr()
        assert run("decode", mixed, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("decode failed:")
        assert "B=327" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["lt", "raptor"])
    @pytest.mark.parametrize("first_b,rest_b", [(1251, 313), (313, 1251)])
    def test_spliced_fountain_stream_is_decode_failure(
        self, scheme, first_b, rest_b, tmp_path, capsys
    ):
        # The first frame of one encoding spliced onto the frames of the same
        # file at another B: refused at the stream boundary with exit 1, in
        # either order, with no traceback and no output file.  300 frames
        # keep the spliced stream longer than the first frame's k*B, so the
        # up-front length check does not pre-empt the boundary check.
        src = tmp_path / "input.bin"
        src.write_bytes(random.Random(3).randbytes(20_000))
        frames = {}
        for b in (first_b, rest_b):
            stream = tmp_path / f"b{b}.ec"
            assert run("encode", src, stream, "--scheme", scheme, "--k", 64,
                       "--b", b, "--seed", 5, "--count", 300) == 0
            frames[b] = list(read_stream(stream.read_bytes()))
        mixed = tmp_path / "mixed.ec"
        mixed.write_bytes(write_stream(frames[first_b][:1] + frames[rest_b]))
        out = tmp_path / "mixed.out"
        capsys.readouterr()
        assert run("decode", mixed, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("decode failed:")
        assert f"B={rest_b}" in err
        assert "Traceback" not in err
        assert not out.exists()


@functools.lru_cache(maxsize=None)
def _file_frames(scheme: str, file_seed: int, seed: int) -> tuple:
    """The 40 frames of a k = 16 stream of a random 4,000-byte file."""
    with tempfile.TemporaryDirectory() as tmp:
        src, stream = Path(tmp, "in.bin"), Path(tmp, "stream.ec")
        src.write_bytes(random.Random(file_seed).randbytes(4000))
        assert run("encode", src, stream, "--scheme", scheme, "--k", 16,
                   "--count", 40, "--seed", seed) == 0
        return tuple(read_stream(stream.read_bytes()))


class TestContradictions:
    @pytest.mark.parametrize("scheme,seeds", [
        ("lt", (1, 2)), ("lt", (3, 4)), ("lt", (5, 6)), ("raptor", (1, 1)),
    ])
    @pytest.mark.parametrize("cut", [4, 8, 12])
    def test_splice_of_two_files_is_refused(self, scheme, seeds, cut, tmp_path, capsys):
        # The first frames of one file's stream followed by all of another
        # equal-size file's: every frame shares the first frame's context,
        # so only frames that contradict the ones before them show the
        # splice.  No file is written.
        frames = _file_frames(scheme, 1, seeds[0])[:cut] + _file_frames(scheme, 2, seeds[1])
        spliced, out = tmp_path / "spliced.ec", tmp_path / "spliced.out"
        spliced.write_bytes(write_stream(frames))
        capsys.readouterr()
        assert run("decode", spliced, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("decode failed:")
        assert "contradict" in err
        assert not out.exists()


class TestOutOfRangeDegree:
    @pytest.mark.parametrize("degree", [0, 13, 0xFFFF])
    def test_lt_degree_outside_one_to_k_is_decode_failure(
        self, degree, sample_file, tmp_path, capsys
    ):
        # One frame of a k = 12 LT stream re-headed with a degree no encoder
        # draws: refused at ingest with exit 1, not a configuration error.
        stream = tmp_path / "lt.ec"
        assert run("encode", sample_file, stream, "--scheme", "lt", "--k", 12,
                   "--seed", 9) == 0
        frames = list(read_stream(stream.read_bytes()))
        bad = SeedDegree(frames[1].header.seed, degree)
        frames[1] = dataclasses.replace(frames[1], header=bad)
        patched = tmp_path / "patched.ec"
        patched.write_bytes(write_stream(frames))
        out = tmp_path / "patched.out"
        capsys.readouterr()
        assert run("decode", patched, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("decode failed:")
        assert f"degree {degree} outside 1..12" in err
        assert "Traceback" not in err
        assert not out.exists()


# Streams of one file for each scheme.  The encodings of a scheme differ
# from the first in B, in k, or in the RS generator or RL field, so each
# has its own stream context.
_PROPERTY_SOURCE = random.Random(6).randbytes(120)
_ENCODINGS = {
    "rs": [(), ("--b", 40), ("--k", 5), ("--systematic",)],
    "rl": [(), ("--b", 40), ("--k", 5), ("--field-order", 2)],
    "lt": [(), ("--b", 40), ("--k", 5)],
    "raptor": [(), ("--b", 40), ("--k", 5)],
    "triangular": [(), ("--b", 40), ("--k", 5)],
}


@functools.lru_cache(maxsize=None)
def _encoded_frames(scheme: str, variant: int) -> tuple:
    with tempfile.TemporaryDirectory() as tmp:
        src, stream = Path(tmp, "in.bin"), Path(tmp, "stream.ec")
        src.write_bytes(_PROPERTY_SOURCE)
        argv = ["encode", src, stream, "--scheme", scheme, "--k", 4, "--seed", 2]
        assert run(*argv, *_ENCODINGS[scheme][variant]) == 0
        return tuple(read_stream(stream.read_bytes()))


def _decode_bytes(data: bytes) -> tuple[int, bytes, str]:
    with tempfile.TemporaryDirectory() as tmp:
        stream, out = Path(tmp, "stream.ec"), Path(tmp, "out.bin")
        stream.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run("decode", stream, out)
        return code, out.read_bytes() if out.exists() else b"", err.getvalue()


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(st.data())
def test_cut_or_spliced_stream_decodes_exactly_or_fails_cleanly(data):
    # A valid stream cut at any byte, or the first frame of one encoding
    # spliced onto the frames of another: exit 0 with the original bytes,
    # or exit 1 with a message; never exit 2 and never a traceback.
    scheme = data.draw(st.sampled_from(sorted(_ENCODINGS)))
    variants = range(len(_ENCODINGS[scheme]))
    if data.draw(st.booleans()):
        stream = write_stream(_encoded_frames(scheme, data.draw(st.sampled_from(variants))))
        stream = stream[: data.draw(st.integers(0, len(stream)))]
    else:
        first, rest = data.draw(
            st.lists(st.sampled_from(variants), min_size=2, max_size=2, unique=True)
        )
        stream = write_stream(_encoded_frames(scheme, first)[:1] + _encoded_frames(scheme, rest))
    code, out, err = _decode_bytes(stream)
    assert code in (0, 1)
    if code == 0:
        assert out == _PROPERTY_SOURCE
    else:
        assert err.startswith("decode failed:")
        assert "Traceback" not in err
