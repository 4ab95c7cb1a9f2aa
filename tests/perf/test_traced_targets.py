"""Every function the perfbench tracer wraps still exists at its path.

``perfbench/spans.py`` wraps each ``TARGETS`` entry by dotted path and
reports a metric absent, not failed, when a path no longer resolves, so
renaming a traced function silently blanks its metrics.  This resolves
every path with the tracer's own resolver, in a fresh interpreter that
writes no byte-code under ``perfbench/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Targets that name code deleted since perfbench was written; their
#: metrics read "absent".
KNOWN_ABSENT = [
    "repro.backend.autotune.Autotuner.save",
    "repro.core.parallel.BatchDssocEvaluator.evaluate_batch",
    "repro.soc.batch.evaluate_design_batch",
]

PROBE = """
import json
import sys

sys.path.insert(0, sys.argv[1])
import spans

absent = []
for target in spans.TARGETS:
    try:
        spans.resolve(target.path)
    except LookupError:
        absent.append(target.path)
print(json.dumps(sorted(absent)))
"""


def test_every_traced_target_resolves():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == KNOWN_ABSENT
