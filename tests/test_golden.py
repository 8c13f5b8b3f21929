"""Golden outputs: the bytes the CLI writes must not move unnoticed.

Each benchmark workload's seed-0 calls (`benchmarks/workloads.py`) run once
through `cli.main` in-process.  Each output is hashed, and the hex digests
of one workload are hashed in call order, as `benchmarks/run.py` does for
its `outputs_identical` line.  A few `--format json` outputs are pinned as
well, since no workload writes JSON, and one CSV at a node count beyond the
workloads' (`pi --x-start=-1000` solves on 257 Chebyshev nodes, the
workloads on 65 and 129).

A change that moves an output on purpose updates the digests here and
says in CHANGES.md which numbers moved and why.
"""
import hashlib
import sys
from pathlib import Path

import pytest

from tau34 import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from workloads import build  # noqa: E402

WORKLOAD_DIGESTS = {
    "certify_d20":
        "cc821139d99320de478dfaabbe65fb75a5b7ce6f22178afcac7cac2c3d834746",
    "sigma_sweep":
        "2b54d354400aadb6916cf5ef1efafa3b220babee6f88511a754afdf024c324bf",
    "parametrix_pi":
        "52c24cc48120872f196621509d310b6f11c831a73eb8682cf85fe3a2a8dd39f4",
}

JSON_DIGESTS = {
    ("sigma", "--grid=-1:2:3,-0.1:0.1:2,-1:1:2"):
        "2ff5d797a437205e1f8d048eabcb26ca3df9aeb4f1bafd0f7c887d02774b2d24",
    ("certify", "--eta=1", "--mu=0.05", "--nu=-0.3"):
        "8b76f3fa562d4cb7dd3b80b9fb9e47b6887c02e3d0bd46ba92a8370285e49811",
    ("pi", "--x-count", "6"):
        "73c6be05e076c6497a11dd6bd0b0e9650a8aef1e60eff94fb7124f298aced8a3",
}

CSV_DIGESTS = {
    ("pi", "--x-start=-1000"):
        "97c6f6feeea77418f80920a81e034c333d3c46ec67c9a80912536d06500d79b2",
}


def output_digest(argv, path):
    """sha256 hex digest of what one call writes to `path`."""
    if path.exists():
        path.unlink()
    code = cli.main(list(argv) + ["--out", str(path)])
    assert code == 0, argv
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workload", sorted(WORKLOAD_DIGESTS))
def test_workload_outputs(workload, tmp_path):
    h = hashlib.sha256()
    for call in build(workload, 0):
        h.update(output_digest(call.argv, tmp_path / "out").encode())
    assert h.hexdigest() == WORKLOAD_DIGESTS[workload]


@pytest.mark.parametrize("argv", sorted(JSON_DIGESTS))
def test_json_outputs(argv, tmp_path):
    digest = output_digest(argv + ("--format", "json"), tmp_path / "out")
    assert digest == JSON_DIGESTS[argv]


@pytest.mark.parametrize("argv", sorted(CSV_DIGESTS))
def test_csv_outputs(argv, tmp_path):
    assert output_digest(argv, tmp_path / "out") == CSV_DIGESTS[argv]
