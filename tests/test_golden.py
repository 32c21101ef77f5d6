"""Behaviour lock: the SHA-256 of each task's 3-episode report, for both
splits and both backends, must match tests/golden/reports.json; the
SHA-256 of the top-50 parses of every generated instruction must match
tests/golden/parses.json; and the SHA-256 of each task's generated
episodes over seeds 0-39, for both splits, must match
tests/golden/episodes.json.

A change that moves a hash changes what tablang does. Regenerate the files
(``PYTHONPATH=src python tests/test_golden.py``) only in a change whose
stated purpose is a behaviour change.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from tablang import benchmark as bm
from tablang import ccg, dsl, world
from tablang.backends import make_backend

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
PARSE_GOLDEN = Path(__file__).parent / "golden" / "parses.json"
EPISODE_GOLDEN = Path(__file__).parent / "golden" / "episodes.json"
EPISODES = 3
GENERATED_SEEDS = 40
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


def parse_hash() -> str:
    """SHA-256 over parse(..., k=50) of every distinct generated instruction
    (9 tasks x both splits x seeds 0..EPISODES-1): each derivation's program,
    log score and novel-word descriptions, in rank order. This locks the
    ranking and the scores, not only the top program."""
    lexicon = ccg.default_lexicon()
    instructions = sorted({
        bm.generate_episode(bm.TaskSpec(name, split), seed).instruction
        for name in bm.TASK_NAMES for split in ("seen", "unseen") for seed in range(EPISODES)
    })
    h = hashlib.sha256()
    for text in instructions:
        rows = tuple(
            (dsl.serialize(d.program), repr(d.log_score),
             tuple(a.describe() for a in d.oov_assignments))
            for d in ccg.parse(ccg.tokenize(text, lexicon), lexicon, k=50)
        )
        h.update(repr((text, rows)).encode("utf-8"))
    return h.hexdigest()


def episode_hash(name: str, split: str) -> str:
    """SHA-256 over generate_episode for seeds 0..GENERATED_SEEDS-1: the
    scene, instruction, expert actions, goal and step budget of each. The
    seeds include builder retries after an exhausted placement
    (separating_piles seed 5), so this locks the placement sampler's
    random stream too."""
    h = hashlib.sha256()
    for seed in range(GENERATED_SEEDS):
        ep = bm.generate_episode(bm.TaskSpec(name, split), seed)
        record = {
            "scene": world.scene_to_dict(ep.scene),
            "instruction": ep.instruction,
            "expert": [dataclasses.asdict(p) for p in ep.expert],
            "goal": dataclasses.asdict(ep.goal),
            "max_steps": ep.max_steps,
        }
        h.update(json.dumps(record, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def episode_hashes() -> dict[str, str]:
    """{"task/split": episode_hash} for every task and both splits."""
    return {f"{name}/{split}": episode_hash(name, split)
            for name in bm.TASK_NAMES for split in ("seen", "unseen")}


@pytest.mark.parametrize("backend_name, split", CASES)
def test_reports_match_golden(backend_name, split):
    golden = json.loads(GOLDEN.read_text())
    assert report_hashes(backend_name, split) == golden[f"{backend_name}/{split}"]


def test_parses_match_golden():
    assert parse_hash() == json.loads(PARSE_GOLDEN.read_text())["parse_k50"]


def test_episodes_match_golden():
    assert episode_hashes() == json.loads(EPISODE_GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {f"{b}/{s}": report_hashes(b, s) for b, s in CASES}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    PARSE_GOLDEN.write_text(json.dumps({"parse_k50": parse_hash()}, indent=2) + "\n")
    EPISODE_GOLDEN.write_text(json.dumps(episode_hashes(), indent=2, sort_keys=True) + "\n")
