"""Behaviour lock: the SHA-256 of each task's 3-episode report, for both
splits and both backends, must match tests/golden/reports.json.

A change that moves a hash changes what tablang does. Regenerate the file
(``PYTHONPATH=src python tests/test_golden.py``) only in a change whose
stated purpose is a behaviour change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tablang import benchmark as bm
from tablang import ccg
from tablang.backends import make_backend

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
EPISODES = 3
CASES = [(backend, split) for backend in ("oracle", "embedding") for split in ("seen", "unseen")]


def report_hashes(backend_name: str, split: str) -> dict[str, str]:
    """{task name: SHA-256 of report_to_json} for seeds 0..EPISODES-1."""
    lexicon = ccg.default_lexicon()
    backend = make_backend(backend_name)
    out = {}
    for name in bm.TASK_NAMES:
        report = bm.run_suite([bm.TaskSpec(name, split)], EPISODES, backend, lexicon)
        out[name] = hashlib.sha256(bm.report_to_json(report).encode("utf-8")).hexdigest()
    return out


@pytest.mark.parametrize("backend_name, split", CASES)
def test_reports_match_golden(backend_name, split):
    golden = json.loads(GOLDEN.read_text())
    assert report_hashes(backend_name, split) == golden[f"{backend_name}/{split}"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {f"{b}/{s}": report_hashes(b, s) for b, s in CASES}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
