"""The suite's own pytest settings (pyproject.toml): with warnings turned
into errors, a failing hypothesis test must still report as one failure
and let the session run on."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''\
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_hypothesis_test_reports_as_failure(tmp_path):
    # the failing test runs first: a session that ended on it would never
    # report the passing one
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + ["-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    out = res.stdout + res.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
