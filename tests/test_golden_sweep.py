"""Golden `bench` sweeps: every scheme's session outputs, pinned byte for byte.

Each sweep runs in process through `cli.main` and must write exactly the
CSV committed under `tests/golden/`.  The CSV carries each configuration's
mean and p95 overhead, failure rate and mean `row_xor` and `sym_mul`, so a
changed stream, overhead or counter in any scheme fails here with a diff.

A change that moves a counter by design re-records the copies, e.g.
`fountainkit bench <ALL_SCHEMES args> --systematic --n 30 --output
tests/golden/systematic.csv`, and names the moved rows in CHANGES.md.  It
never changes a seed, a trial count or a sweep.
"""

import difflib
from pathlib import Path

import pytest

from fountainkit.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"

ALL_SCHEMES = [
    "bench", "--schemes", "rs", "rl", "lt", "raptor", "triangular", "arq",
    "--k-values", "8", "16", "--b", "16", "--loss", "0.0", "0.3",
    "--clients", "3", "--trials", "3", "--seed", "5",
]

SWEEPS = {
    "all_schemes": [],
    "systematic": ["--systematic", "--n", "30"],
    "binary_sparse": ["--field-order", "2", "--sparsity", "0.5"],
    "precode": ["--redundant", "3", "--row-weight", "2"],
    "soliton": ["--c", "0.3", "--delta", "0.2"],
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert cli_main(ALL_SCHEMES + SWEEPS[name] + ["--output", str(out)]) == 0
    got = out.read_text()
    want = (GOLDEN / f"{name}.csv").read_text()
    diff = "".join(
        difflib.unified_diff(
            want.splitlines(keepends=True),
            got.splitlines(keepends=True),
            fromfile=f"golden/{name}.csv",
            tofile="this run",
        )
    )
    assert got == want, diff
