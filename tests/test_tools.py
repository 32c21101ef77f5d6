import collections
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from tablang.benchmark import TASK_NAMES

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = TOOLS.parent / "src" / "tablang"
# ROADMAP's standing rule: src/ stays at or below 3,300 lines, so a change
# that adds code removes some too.
SRC_LINE_BUDGET = 3300


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_bench = load_tool("ab_bench")
numpy_calls = load_tool("numpy_calls")
parse_equiv = load_tool("parse_equiv")
plan_equiv = load_tool("plan_equiv")
BASE = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]


def test_verdict_gain_needs_ten_pairs_nine_wins_and_a_median_past_the_iqr():
    better = [b * 1.13 for b in BASE]
    assert ab_bench.verdict(BASE, better, "higher", 0.2) == "gain"
    assert ab_bench.verdict(BASE, [b * 0.87 for b in BASE], "lower", 0.2) == "gain"
    # Fewer than ten pairs cannot claim a gain.
    assert ab_bench.verdict(BASE[:4], better[:4], "higher", 0.2) == \
        "within bound (better by 13.0%; bound 20%)"
    # Eight wins of ten are not nine tenths.
    two_losses = better[:8] + [90.0, 90.0]
    assert ab_bench.wins(BASE, two_losses, "higher") == 8
    assert ab_bench.verdict(BASE, two_losses, "higher", 0.2).startswith("within bound")
    # Nine wins, but the medians differ by less than the base's IQR (1.0).
    close = [b + 0.5 for b in BASE[:9]] + [BASE[9]]
    assert ab_bench.wins(BASE, close, "higher") == 9
    assert ab_bench.verdict(BASE, close, "higher", 0.2).startswith("within bound")


def test_verdict_compares_a_worsening_with_the_bound():
    assert ab_bench.verdict(BASE, [b * 1.1 for b in BASE], "lower", 0.2) == \
        "within bound (worse by 10.0%; bound 20%)"
    assert ab_bench.verdict(BASE, [b * 1.3 for b in BASE], "lower", 0.2) == \
        "beyond bound (worse by 30.0%; bound 20%)"
    assert ab_bench.verdict([1.0] * 10, [1.0] * 10, "higher", 0.01) == \
        "within bound (same median; bound 1%)"
    wide = [50.0, 150.0] * 5
    assert ab_bench.verdict(BASE, wide, "higher", 0.2) == \
        "unresolved (spread 100.0% > bound 20%)"


def test_src_stays_within_its_line_budget():
    """Counted as benchmarks/run.py's provenance counts src_lines."""
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted(SRC.rglob("*.py")))
    assert lines <= SRC_LINE_BUDGET, f"src/ has {lines} lines, over its budget of {SRC_LINE_BUDGET}"


def test_parse_equiv_quick_hashes_the_tree_stably(capsys):
    """The tree against itself, in process: two --quick runs print the same
    outcome hashes, and a hash that differs or is missing names its sentence."""
    runs = []
    for _ in range(2):
        assert parse_equiv.main(["--quick"]) == 0
        runs.append(json.loads(capsys.readouterr().out))
    first, second = (run["hashes"] for run in runs)
    assert first == second
    assert len(first) == 69
    assert parse_equiv.mismatches(first, second) == []
    sentence = next(iter(second))
    assert parse_equiv.mismatches(first, {**second, sentence: "0"}) == [sentence]
    assert parse_equiv.mismatches(first, {}) == list(first)


def test_plan_equiv_quick_hashes_the_tree_stably(capsys):
    """The tree against itself, in process: two --quick runs print the same
    plan hashes for every goal of seed 0 (each task, split and backend has a
    goal 0), and a hash that differs or is missing names its goal."""
    runs = []
    for _ in range(2):
        assert plan_equiv.main(["--quick"]) == 0
        runs.append(json.loads(capsys.readouterr().out))
    first, second = (run["hashes"] for run in runs)
    assert first == second
    assert {goal.rsplit("/", 2)[0] for goal in first if goal.endswith("/0/0")} == {
        f"{backend}/{task}/{split}" for backend in plan_equiv.BACKENDS
        for task in TASK_NAMES for split in plan_equiv.SPLITS}
    assert parse_equiv.mismatches(first, second) == []
    goal = next(iter(second))
    assert parse_equiv.mismatches(first, {**second, goal: "0"}) == [goal]


def test_hot_path_stays_off_numpys_python_layer():
    """tools/numpy_calls.py over one episode per task, split and backend:
    no hot-path function enters numpy's Python layer (np.errstate aside),
    and tablang enters it at most PER_EPISODE_LIMIT times per episode."""
    if np.__version__.split(".")[0] != "2":
        pytest.skip(f"the guard counts numpy 2.x's Python layer, not numpy {np.__version__}'s")
    if sys.version_info < (3, 11):
        pytest.skip("HOT_PATH names methods by co_qualname, which Python 3.11 added")
    counts, runs = numpy_calls.count(episodes=1, seed=0)
    assert runs == 2 * 2 * len(TASK_NAMES)
    assert numpy_calls.problems(counts, runs) == []


def test_numpy_calls_names_each_breach():
    """A hot-path site entering numpy's Python layer is named, np.errstate
    is exempt, and a total over the limit is reported."""
    counts = collections.Counter({
        ("grounding.support_box:9", "numeric.flatnonzero"): 1,
        ("backends.EmbeddingBackend._scene_table:3", "_ufunc_config.errstate.__enter__"): 1,
        ("benchmark.generate_episode:5", "multiarray.concatenate"): 2,
    })
    assert numpy_calls.problems(counts, 1) == ["grounding.support_box:9 enters numeric.flatnonzero"]
    counts["benchmark.generate_episode:5", "multiarray.concatenate"] = numpy_calls.PER_EPISODE_LIMIT
    assert numpy_calls.problems(counts, 1)[1:] == [
        f"{numpy_calls.PER_EPISODE_LIMIT + 2:.1f} entries per episode, "
        f"over {numpy_calls.PER_EPISODE_LIMIT}"]
