"""The benchmark's own self-test, run as part of the test suite.

``perfbench/selftest.py`` checks that traced runs produce the same bytes as
the pipeline, that every declared metric is printed (including the
``choose_rice_k`` count taken by wrapping ``tlxs.rice.choose_rice_k``), and
that corrupted or drifted streams are caught. It takes a few seconds.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "selftest: ok" in proc.stdout
