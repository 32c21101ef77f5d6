"""Tablang call sites that enter numpy's Python layer, counted on a fixed workload.

numpy 2.x writes part of its API in Python: ``ndarray.any``, ``max``,
``sum`` and ``mean`` call ``numpy/_core/_methods.py``, and ``np.clip``,
``np.flatnonzero``, ``np.searchsorted`` or ``sliding_window_view`` are
Python functions around C entry points. On tablang's 64 x 128 maps that
fixed cost outweighs the arithmetic, so the per-goal path calls the C
entry points itself (ufunc ``.reduce``, ndarray methods).

Under ``sys.setprofile`` this runs ``benchmark.run_suite`` over the 9 tasks,
both splits and both backends, and counts every call of a Python function in
numpy's package made directly from a frame of tablang's source (a function
behind ``array_function_dispatch`` counts twice: its dispatcher, then
itself). It prints one line per (tablang site, numpy function), most entries
first, then the total per episode, and exits 1 when a function of
``HOT_PATH`` enters numpy's Python layer (``np.errstate`` aside) or the
total per episode exceeds ``PER_EPISODE_LIMIT``.

    PYTHONPATH=src python3 tools/numpy_calls.py --episodes 20 --seed 0
"""

from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path

import numpy as np

# The functions every goal, action or generated episode runs; none of them
# may enter numpy's Python layer.
HOT_PATH = (
    "grounding.support_box", "grounding._window", "grounding.resample", "grounding.normalize",
    "executor.relation_kernel", "executor._interior_depth", "executor.select_pick",
    "executor.select_place", "executor._component", "executor._clear_of_items",
    "executor._place_scores", "executor._push_params", "executor.execute", "executor._eval_obj",
    "executor.eval_relate",
    "backends.EmbeddingBackend._scene_table", "benchmark._containment", "benchmark._Placer.place",
)
# np.errstate sets the ufunc error state from Python and has no C entry
# point, so a hot-path function may enter it.
EXEMPT = "_ufunc_config.errstate"
# What is left per episode: the episode's seeded generator, its permutations
# and np.errstate, about 7.4 entries at seed 0 with 20 episodes per task.
PER_EPISODE_LIMIT = 12
NUMPY_DIR = str(Path(np.__file__).resolve().parent) + "/"


def _site(code) -> str:
    """module.qualname of a code object (its file's stem for the module);
    before Python 3.11, which added co_qualname, a method shows as module.name."""
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


def count(episodes: int, seed: int) -> tuple[collections.Counter, int]:
    """({(tablang site, numpy function): entries}, episodes run): one
    run_suite of the given episodes per task for each backend and split."""
    import tablang
    from tablang import benchmark, ccg
    from tablang.backends import make_backend

    src_dir = str(Path(tablang.__file__).resolve().parent) + "/"
    counts: collections.Counter = collections.Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(NUMPY_DIR):
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(src_dir):
                counts[f"{_site(caller.f_code)}:{caller.f_lineno}", _site(frame.f_code)] += 1

    runs = 0
    for backend in ("oracle", "embedding"):
        for split in ("seen", "unseen"):
            tasks = [benchmark.TaskSpec(name, split) for name in benchmark.TASK_NAMES]
            lexicon = ccg.default_lexicon()
            sys.setprofile(profile)
            try:
                benchmark.run_suite(tasks, episodes, make_backend(backend), lexicon, seed=seed)
            finally:
                sys.setprofile(None)
            runs += len(tasks) * episodes
    return counts, runs


def problems(counts: collections.Counter, runs: int) -> list[str]:
    """Each hot-path site that enters numpy's Python layer (np.errstate
    aside), then the total per episode if it is over the limit."""
    out = [f"{site} enters {fn}" for (site, fn) in sorted(counts)
           if site.rsplit(":", 1)[0] in HOT_PATH and not fn.startswith(EXEMPT)]
    total = sum(counts.values()) / runs
    if total > PER_EPISODE_LIMIT:
        out.append(f"{total:.1f} entries per episode, over {PER_EPISODE_LIMIT}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--episodes", type=int, default=20, help="episodes per task, split and backend")
    ap.add_argument("--seed", type=int, default=0, help="first episode seed")
    args = ap.parse_args(argv)
    counts, runs = count(args.episodes, args.seed)
    for (site, fn), n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"{n:8d}  {site} -> {fn}")
    print(f"{sum(counts.values()) / runs:.1f} entries per episode over {runs} episodes")
    bad = problems(counts, runs)
    for line in bad:
        print(f"guard: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
