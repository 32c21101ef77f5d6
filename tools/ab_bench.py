"""Interleaved A/B runs of the benchmark: a base revision against the working tree.

Unpacks REV with ``git archive`` into a temporary directory, then runs
BENCHMARK.json's command (``python3 benchmarks/run.py``) with
``--workload W --seed S --seconds T --trace 0`` in both trees, N times each.
Pair i runs the base first when i is even and the working tree first when
it is odd, so slow drift of the host's speed falls on both sides alike.

    python3 tools/ab_bench.py --base HEAD~1 --workload oracle-seen --seed 7 --pairs 10

For every end-to-end metric it prints each side's median and quartiles, the
number of pairs in which the working tree did better (by the metric's
``better`` direction; a tie is not a win), and a verdict (see ``verdict``).
It refuses to run when
``benchmarks/`` differs between the two trees, since the two sides would then
not be measured alike, and exits 1 when any run reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=False)


def benchmark_differs(rev: str) -> bool:
    """Whether the working tree's benchmarks/ differs from rev's: a tracked
    file changed, added or removed, or an untracked file that is not ignored."""
    changed = git("diff", "--quiet", rev, "--", "benchmarks").returncode != 0
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "benchmarks").stdout
    return changed or bool(untracked.strip())


def unpack(rev: str, dest: Path) -> None:
    archive = git("archive", "--format=tar", rev)
    if archive.returncode != 0:
        sys.exit(f"error: git archive {rev}: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def run(tree: Path, command: list[str], args) -> dict:
    """The result line of one benchmark run in tree; exits on a crash."""
    argv = [*command, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.splitlines()
    if not lines:
        sys.exit(f"error: no output from {' '.join(argv)} in {tree} (exit {out.returncode})")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    """The values' quartiles [q1, median, q3]."""
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def wins(base: list[float], work: list[float], better: str) -> int:
    """Pairs in which work did better than base; a tie is not a win."""
    sign = 1 if better == "higher" else -1
    return sum(1 for b, w in zip(base, work) if sign * (w - b) > 0)


def verdict(base: list[float], work: list[float], better: str, bound: float) -> str:
    """One metric's verdict on paired runs (base[i] and work[i] ran as a pair).

    "gain" when there are at least 10 pairs, the working tree won at least
    nine tenths of them (a tie is not a win), and its median is better than
    the base's by more than the base's interquartile range. Otherwise
    "unresolved" when the wider of the two sides' interquartile ranges,
    as a share of the base median, exceeds bound; then "beyond bound" or
    "within bound" by how much worse the working tree's median is, as a share
    of the base median."""
    sign = 1 if better == "higher" else -1
    (b1, b_med, b3), (w1, w_med, w3) = quartiles(base), quartiles(work)
    won = wins(base, work, better)
    if len(base) >= 10 and 10 * won >= 9 * len(base) and sign * (w_med - b_med) > b3 - b1:
        return "gain"
    scale = abs(b_med) or 1.0
    spread = max(b3 - b1, w3 - w1) / scale
    if spread > bound:
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    worse = sign * (b_med - w_med) / scale
    change = f"{'worse' if worse > 0 else 'better'} by {abs(worse):.1%}" if worse else "same median"
    return f"{'beyond' if worse > bound else 'within'} bound ({change}; bound {bound:.0%})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    if git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}").returncode != 0:
        ap.error(f"unknown revision {args.base!r}")
    if benchmark_differs(args.base):
        sys.exit(f"error: benchmarks/ differs between {args.base} and the working tree")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]
    results: dict[str, list[dict]] = {"base": [], "work": []}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        base_tree = Path(tmp)
        unpack(args.base, base_tree)
        trees = {"base": base_tree, "work": ROOT}
        for i in range(args.pairs):
            order = ("base", "work") if i % 2 == 0 else ("work", "base")
            for side in order:
                result = run(trees[side], bench["command"], args)
                results[side].append(result)
                shown = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
                print(json.dumps({"pair": i, "side": side, "correct": result["correct"],
                                  **shown}), flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs: "
          f"base {args.base} vs working tree (q1 / median / q3)")
    for m in metrics:
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in results["base"]]
        work = [r["metrics"][name]["value"] for r in results["work"]]
        shown = {side: " / ".join(f"{q:.4g}" for q in quartiles(v))
                 for side, v in (("base", base), ("work", work))}
        print(f"  {name:16s} base {shown['base']}   work {shown['work']}"
              f"   work won {wins(base, work, m['better'])}/{args.pairs}")
        print(f"  {'':16s} verdict: {verdict(base, work, m['better'], m['bound'])}")
    correct = all(r["correct"] for side in results.values() for r in side)
    if not correct:
        print("error: a run reported correct: false", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
