"""Byte pin of an example's printed output.

``examples/project_monitoring.py`` prints the communication analyses
(traffic summary, top talkers, cross-organisation flows, reciprocity) and
the ``analysis.report`` communication section.  Its stdout is hashed, so
a change to how the communication log stores or answers those queries
cannot move what the example prints.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROJECT_MONITORING_SHA256 = "31965748b363eadc7b6f3f0f4a978dd97bb7d281757a19921e8df2b62761c92b"


def test_project_monitoring_prints_the_pinned_output():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "project_monitoring.py")],
        capture_output=True, check=True, env=env, cwd=ROOT,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == PROJECT_MONITORING_SHA256, (
        result.stdout.decode()
    )
