"""The pytest configuration's warning filters leave a failing Hypothesis
test its report."""
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=20)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5
'''


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    pytest.importorskip("hypothesis")
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    # under this repository's filterwarnings; Hypothesis writes its patch files to the cwd
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
                           str(tmp_path / "test_fails.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
