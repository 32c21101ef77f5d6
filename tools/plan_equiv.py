"""Per-goal plan hashes of one tree, or a base revision's against the working tree's.

Without --base, prints one JSON line for the tablang on the import path: the
file it was imported from, and {goal: SHA-256 of its plan}. With --base REV,
unpacks REV (``ab_bench.unpack``) into a temporary directory and runs this
script once per tree, REV's and the working tree's, each in its own
subprocess with PYTHONPATH set to that tree's ``src``
(``parse_equiv.tree_hashes``). It prints how many goals differ, or were
planned in one tree only, names the first of them, and exits 1 if there is
any.

    python3 tools/plan_equiv.py --base HEAD~1
    PYTHONPATH=src python3 tools/plan_equiv.py --quick

The goals are every goal that ``benchmark.run_episode`` plans for seeds 0-19
of all 9 tasks on both splits, with the oracle and with the embedding
backend, named backend/task/split/seed/n for the episode's n-th goal. A
goal's plan is its ExecutionResult: params, pick-map bytes, place cells,
place-score bytes and every intermediate map's bytes; a goal that raises
hashes its exception's type and message instead. --quick takes seed 0 only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BACKENDS = ("oracle", "embedding")
SPLITS = ("seen", "unseen")


def _feed(digest, arr) -> None:
    arr = np.ascontiguousarray(arr)
    digest.update(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(arr.tobytes())


def plan_hash(result) -> str:
    """SHA-256 of one ExecutionResult's params, maps, cells and scores."""
    digest = hashlib.sha256(repr(result.params).encode())
    for arr in (result.pick_map.values, *result.place_cells, result.place_scores):
        _feed(digest, arr)
    for path in sorted(result.intermediates):
        digest.update(path.encode())
        _feed(digest, result.intermediates[path].values)
    return digest.hexdigest()


def hashes(quick: bool = False) -> dict[str, str]:
    """{goal: plan hash} over every goal of the seeded episodes."""
    from tablang import benchmark, ccg
    from tablang.backends import make_backend

    execute, planned = benchmark.execute, []

    def recorded(goal, ctx):
        try:
            result = execute(goal, ctx)
        except Exception as exc:
            planned.append(hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest())
            raise
        planned.append(plan_hash(result))
        return result

    lexicon, out = ccg.default_lexicon(), {}
    with mock.patch.object(benchmark, "execute", recorded):
        for name in BACKENDS:
            backend = make_backend(name)
            for task in benchmark.TASK_NAMES:
                for split in SPLITS:
                    for seed in range(1 if quick else 20):
                        episode = benchmark.generate_episode(benchmark.TaskSpec(task, split), seed)
                        planned.clear()
                        benchmark.run_episode(episode, backend, lexicon)
                        for n, digest in enumerate(planned):
                            out[f"{name}/{task}/{split}/{seed}/{n}"] = digest
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="git revision to compare the working tree against")
    ap.add_argument("--quick", action="store_true", help="seed 0 only, for a smoke test")
    args = ap.parse_args(argv)
    if args.base is None:
        import tablang

        print(json.dumps({"tablang": tablang.__file__, "hashes": hashes(args.quick)}))
        return 0
    from ab_bench import git, unpack
    from parse_equiv import mismatches, tree_hashes

    if git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}").returncode != 0:
        ap.error(f"unknown revision {args.base!r}")
    script = Path(__file__).resolve()
    with tempfile.TemporaryDirectory(prefix="plan_equiv-") as tmp:
        unpack(args.base, Path(tmp))
        base = tree_hashes(Path(tmp), args.quick, script)
    work = tree_hashes(ROOT, args.quick, script)
    bad = mismatches(base, work)
    if bad:
        print(f"first differing goal: {bad[0]}")
    print(f"{len(work)} goals ({len(base)} at {args.base}): "
          f"{len(bad)} differing goals against {args.base}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
