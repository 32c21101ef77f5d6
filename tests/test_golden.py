"""Behaviour lock: the SHA-256 of each task's 3-episode report, for both
splits and both backends, must match tests/golden/reports.json; the
SHA-256 of the top-50 parses of every generated instruction must match
tests/golden/parses.json; the SHA-256 of each task's generated episodes
over seeds 0-39, for both splits, must match tests/golden/episodes.json;
and the SHA-256s of the exit code, stdout, stderr and every written file
of a set of in-process `tablang run` and `tablang repl` sessions must
match tests/golden/cli.json.

A change that moves a hash changes what tablang does. Regenerate the files
(``PYTHONPATH=src python tests/test_golden.py``) only in a change whose
stated purpose is a behaviour change.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from tablang import benchmark as bm
from tablang import ccg, cli, dsl, world
from tablang.backends import make_backend

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
PARSE_GOLDEN = Path(__file__).parent / "golden" / "parses.json"
EPISODE_GOLDEN = Path(__file__).parent / "golden" / "episodes.json"
CLI_GOLDEN = Path(__file__).parent / "golden" / "cli.json"
EPISODES = 3
GENERATED_SEEDS = 40
CASES = [(backend, split) for backend in ("oracle", "embedding") for split in ("seen", "unseen")]
# (backend, task) of each `tablang run` on the task's seen, seed-0 scene and instruction.
CLI_RUNS = ([("oracle", name) for name in bm.TASK_NAMES]
            + [("embedding", "packing_nested_prepositions"), ("embedding", "separating_piles")])


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


def _cli_hashes(out_dir: Path, argv: list[str], stdin: str = "") -> dict[str, str]:
    """SHA-256s of the exit code, stdout and stderr of in-process
    cli.main(argv) with the given stdin, and of every file it writes to
    out_dir."""
    stdout, stderr, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--output-dir", str(out_dir)])
    finally:
        sys.stdin = saved
    out = {"<exit code>": str(code).encode(), "<stdout>": stdout.getvalue().encode(),
           "<stderr>": stderr.getvalue().encode()}
    out.update((p.name, p.read_bytes()) for p in sorted(out_dir.iterdir()))
    return {name: hashlib.sha256(data).hexdigest() for name, data in out.items()}


def cli_hashes() -> dict[str, dict[str, str]]:
    """{session: _cli_hashes} for each of CLI_RUNS, a run that does not
    parse, and a scripted repl session on packing_shapes' seed-0 scene."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for backend, name in CLI_RUNS:
            ep = bm.generate_episode(bm.TaskSpec(name), 0)
            world.save_scene(root / f"{name}.json", ep.scene)
            out[f"run/{backend}/{name}"] = _cli_hashes(
                root / f"{backend}-{name}",
                ["run", "--scene", str(root / f"{name}.json"), "--backend", backend,
                 ep.instruction])
        scene = ["--scene", str(root / "packing_shapes.json")]
        out["run/no_parse"] = _cli_hashes(root / "no-parse", ["run", *scene, "box pack the"])
        instruction = bm.generate_episode(bm.TaskSpec("packing_shapes"), 0).instruction
        script = [instruction, ":render", ":undo", ":undo", "", "box pack the", ":bogus",
                  "pack the red star in the blue bowl", instruction, ":render", ":quit"]
        out["repl"] = _cli_hashes(root / "repl", ["repl", *scene], "\n".join(script) + "\n")
    return out


@pytest.mark.parametrize("backend_name, split", CASES)
def test_reports_match_golden(backend_name, split):
    golden = json.loads(GOLDEN.read_text())
    assert report_hashes(backend_name, split) == golden[f"{backend_name}/{split}"]


def test_parses_match_golden():
    assert parse_hash() == json.loads(PARSE_GOLDEN.read_text())["parse_k50"]


def test_episodes_match_golden():
    assert episode_hashes() == json.loads(EPISODE_GOLDEN.read_text())


def test_cli_matches_golden():
    assert cli_hashes() == json.loads(CLI_GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    table = {f"{b}/{s}": report_hashes(b, s) for b, s in CASES}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    PARSE_GOLDEN.write_text(json.dumps({"parse_k50": parse_hash()}, indent=2) + "\n")
    EPISODE_GOLDEN.write_text(json.dumps(episode_hashes(), indent=2, sort_keys=True) + "\n")
    CLI_GOLDEN.write_text(json.dumps(cli_hashes(), indent=2, sort_keys=True) + "\n")
