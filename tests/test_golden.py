"""Every checked-in golden output, reproduced.

On the platform the files were made on (same numpy, SIMD targets and
BLAS) the outputs must match byte for byte.  Elsewhere another numpy's
exp kernels, pocketfft or BLAS may move the last bit, so numbers must
match to 1e-12 relative and everything else (strings, integers, exit
codes, stderr) exactly.  The test never skips.
"""
import json
import math
import os
import re
import subprocess
import sys

import pytest

from golden.make_golden import (GEMM_CASES, HERE, RECORD, RUNS, THREADS,
                                _estimates, estimates, gemm_digests,
                                gemm_estimates, platform_fingerprint, run_cli)

REL_TOL = 1e-12
_INT = re.compile(r"-?\d+")

GOLDEN = json.loads(RECORD.read_text())
SAME_PLATFORM = GOLDEN["fingerprint"] == platform_fingerprint()


def _same_cell(got: str, want: str) -> bool:
    if got == want:
        return True
    if _INT.fullmatch(got) or _INT.fullmatch(want):
        return False
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _same_csv(got: str, want: str) -> bool:
    got_rows, want_rows = got.split("\n"), want.split("\n")
    return len(got_rows) == len(want_rows) and all(
        len(g) == len(w) and all(map(_same_cell, g, w))
        for g, w in zip((r.split(",") for r in got_rows),
                        (r.split(",") for r in want_rows)))


def test_golden_record_names_every_run():
    assert set(GOLDEN["runs"]) == set(RUNS)
    for name, run in GOLDEN["runs"].items():
        assert run["files"] == sorted(f.name for f in (HERE / name).iterdir())


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("name", list(RUNS))
def test_cli_matches_golden(tmp_path, name, threads):
    code, err, files = run_cli(name, threads, tmp_path)
    want = GOLDEN["runs"][name]
    assert (code, err) == (want["exit"], want["stderr"])
    assert sorted(files) == want["files"]
    for fname, data in files.items():
        golden = (HERE / name / fname).read_bytes()
        # the tolerant compare runs everywhere, so that it is itself tested
        assert _same_csv(data.decode(), golden.decode()), fname
        if SAME_PLATFORM:
            assert data == golden, fname


@pytest.fixture(scope="module")
def got_estimates():
    return _estimates()


@pytest.fixture(scope="module")
def got_digests():
    return gemm_digests()


def test_estimates_match_golden(got_estimates):
    got, want = estimates(got_estimates), GOLDEN["estimates"]
    assert set(got) == set(want)
    for name in want:
        assert all(map(_same_cell, map(str, got[name]), map(str, want[name]))), name
        if SAME_PLATFORM:
            assert got[name] == want[name], name


RHO_CASES = ("feynman_kac_rho-0.7", *GEMM_CASES)


def test_one_blas_thread_gives_the_same_rho_estimate(got_estimates, got_digests):
    # the byte pins rest on the Z-tilde dgemms as well as on the Riccati ddot
    # (its per-step dot never reaches BLAS); any dgemm that sim._serial_matmul
    # leaves whole may run on OpenBLAS's pool, so one BLAS thread must not
    # move a bit of the estimates, whether the GEMMs are split, ragged or
    # pooled (GEMM_CASES).  The split GEMMs never wake the pool, so the paths
    # behind the split case keep every bit too.  A pooled GEMM's own bits do
    # move with OpenBLAS's thread count: the ragged and pooled cases' paths
    # differ under one BLAS thread, though their estimates do not (README's
    # library section), so only their estimates are compared.
    split = "feynman_kac_142x4096_split"
    code = ("from golden.make_golden import _estimates, gemm_digests; "
            f"e = _estimates(); print(repr([e[name] for name in {RHO_CASES!r}])); "
            f"print(gemm_digests()[{split!r}])")
    paths = [str(HERE.parent.parent / "src"), str(HERE.parent),
             os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
           "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == [repr([got_estimates[name] for name in RHO_CASES]),
                                got_digests[split]]


def test_two_threads_give_the_same_gemm_estimates(got_estimates, got_digests):
    # threads=2 runs each case's two batches on two workers at once, each
    # calling BLAS from its own thread
    assert gemm_estimates(threads=2) == {name: got_estimates[name] for name in GEMM_CASES}
    assert gemm_digests(threads=2) == got_digests


@pytest.mark.parametrize("got, want, same", [
    ("1.0000000000000002", "1", False),  # an int never takes the tolerance
    ("0.10000000000000001", "0.10000000000000002", True),
    ("0.100000000001", "0.1", False),
    ("nan", "nan", True),
    ("fractional", "rough", False),
    ("7451d8345f848cb8", "7451d8345f848cb8", True),
])
def test_tolerant_compare(got, want, same):
    assert _same_cell(got, want) is same
