"""Erasure and fountain coding toolkit.

Five codecs over an instrumented finite-field linear-algebra core, a
binary-erasure-channel multicast simulator and a benchmark CLI.
"""

from .core import (
    CodedPacket,
    CoefficientVector,
    DecodeStatus,
    InputBlock,
    LinearDecoder,
    RaptorSeed,
    RowIndex,
    SchemeId,
    SeedDegree,
    ShiftList,
    linear_combine,
)
from .gf import GF2, GF256, FieldSpec, field
from .linalg import (
    FieldMatrix,
    OpCounter,
    back_substitute,
    invert,
    rank,
    solve,
    triangularize,
)
from .wire import deserialize, read_stream, serialize, write_stream

__all__ = [
    "CodedPacket",
    "CoefficientVector",
    "DecodeStatus",
    "FieldMatrix",
    "FieldSpec",
    "GF2",
    "GF256",
    "InputBlock",
    "LinearDecoder",
    "OpCounter",
    "RaptorSeed",
    "RowIndex",
    "SchemeId",
    "SeedDegree",
    "ShiftList",
    "back_substitute",
    "deserialize",
    "field",
    "invert",
    "linear_combine",
    "rank",
    "read_stream",
    "serialize",
    "solve",
    "triangularize",
    "write_stream",
]

__version__ = "0.1.0"
