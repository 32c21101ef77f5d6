"""Layer spans for the tablang benchmark.

The benchmark traces tablang from the outside: it swaps the public function
at each module boundary for a wrapper that records a span (name, start, end,
parent span, episode id) and restores the originals when the traced pass
ends. Nothing under ``src/`` knows about tracing.

Each layer is patched where its callers look it up at call time:
``benchmark.run_suite`` finds ``generate_episode``, ``run_episode``,
``score_success`` and ``execute`` in the ``tablang.benchmark`` namespace; the
executor, the backends and the benchmark reach ``footprint_mask``, ``render``
and the action primitives through the ``tablang.world`` module (``world``'s
own calls resolve through the same module globals); the executor calls
``ctx.backend.ground``, so the backend classes are patched.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, owner of the attribute under ``tablang``, attribute). Span
# names are the package modules, so a metric reads as ``<module>.<function>``.
LAYERS = (
    ("benchmark.generate_episode", "benchmark", "generate_episode"),
    ("benchmark.run_episode", "benchmark", "run_episode"),
    ("benchmark.score_success", "benchmark", "score_success"),
    ("executor.execute", "benchmark", "execute"),
    ("ccg.tokenize", "ccg", "tokenize"),
    ("ccg.parse", "ccg", "parse"),
    ("backends.ground", "backends.OracleBackend", "ground"),
    ("backends.ground", "backends.EmbeddingBackend", "ground"),
    ("world.render", "world", "render"),
    ("world.footprint_mask", "world", "footprint_mask"),
    ("world.apply_pick_place", "world", "apply_pick_place"),
    ("world.apply_push", "world", "apply_push"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))
MAX_OOV_BUCKET = 2


def _resolve(tablang, path: str):
    obj = tablang
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def episode_id(task_name: str, split: str, seed: int) -> str:
    return f"{task_name}/{split}/{seed}"


def oov_count(tokens, lexicon) -> int:
    """Distinct tokens with no lexicon entry, the way ``ccg.parse`` counts
    them."""
    return sum(1 for t in dict.fromkeys(tokens) if not lexicon.entries_for(t))


class Tracer:
    """In-memory span recorder plus the per-call facts the metrics need.

    ``spans[i]`` is ``(name, start, end, parent_index, episode_id)``; the
    parent index is -1 for a span with no enclosing span.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._episode: str | None = None
        self.facts: dict[int, object] = {}

    def _wrap(self, name: str, fn, note_args, note_result):
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            outer_episode = tracer._episode
            if name == "benchmark.generate_episode":
                task, seed = args[0], args[1]
                tracer._episode = episode_id(task.name, task.split, seed)
            elif name == "benchmark.run_episode":
                ep = args[0]
                tracer._episode = episode_id(ep.task_name, ep.split, ep.seed)
            if note_args is not None:
                tracer.facts[idx] = note_args(args)
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer._episode)
                tracer._episode = outer_episode
            if note_result is not None:
                tracer.facts[idx] = note_result(result)
            return result

        return traced

    @contextmanager
    def patched(self, tablang):
        """Install a traced wrapper at every layer boundary; restore the
        originals on exit, even when the traced code raises."""
        note_args = {
            "ccg.parse": lambda a: (tuple(a[0]), min(oov_count(a[0], a[1]), MAX_OOV_BUCKET)),
            # a[0] is the backend instance of the patched method.
            "backends.ground": lambda a: (a[1], a[2]),
        }
        note_result = {
            "world.apply_pick_place": lambda r: r[1],
            "world.apply_push": lambda r: r[1],
            "benchmark.run_episode": lambda r: r["steps"],
        }
        saved = []
        try:
            for name, owner_path, attr in LAYERS:
                owner = _resolve(tablang, owner_path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, note_args.get(name),
                                                 note_result.get(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path) -> None:
        """Side file: one JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, episode) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "episode": episode}) + "\n")

    def layer_metrics(self, wall_s: float, scale: dict[str, float]) -> dict:
        """Per-layer calls, self time and ratios derived from the spans.

        Self time is a span's duration minus the durations of its direct
        children (spans nest, as the program is single-threaded), multiplied
        by ``scale[episode id]``, the host-speed correction of its episode.
        ``trace.uncovered_frac`` is the share of ``wall_s`` outside every
        top-level span: ``run_suite``'s own loop and the harness.
        """
        child_s = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
            else:
                covered += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        parse_calls = [0] * (MAX_OOV_BUCKET + 1)
        parse_self = [0.0] * (MAX_OOV_BUCKET + 1)
        parse_keys: set = set()
        ground_keys: set = set()
        policy = {"world.apply_pick_place": [0, 0], "world.apply_push": [0, 0]}
        steps = []
        for i, (name, start, end, parent, episode) in enumerate(self.spans):
            own = ((end - start) - child_s[i]) * scale.get(episode, 1.0)
            calls[name] += 1
            self_s[name] += own
            fact = self.facts.get(i)
            if name == "ccg.parse":
                tokens, oov = fact
                parse_keys.add(tokens)
                parse_calls[oov] += 1
                parse_self[oov] += own
            elif name == "backends.ground":
                ground_keys.add(fact)
            elif name in policy and parent >= 0 and self.spans[parent][0] == "benchmark.run_episode":
                # Only the policy's own actions; the generator's expert
                # replays never miss and would dilute the ratio.
                policy[name][0] += 1
                policy[name][1] += 0 if fact else 1
            elif name == "benchmark.run_episode":
                steps.append(fact)

        out: dict[str, tuple[float, str]] = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for k in range(MAX_OOV_BUCKET + 1):
            out[f"ccg.parse.calls.oov{k}"] = (parse_calls[k], "count")
            out[f"ccg.parse.self_s.oov{k}"] = (parse_self[k], "s")
        out["ccg.parse.distinct_frac"] = (_ratio(len(parse_keys), calls["ccg.parse"]), "ratio")
        out["backends.ground.distinct_frac"] = (_ratio(len(ground_keys), calls["backends.ground"]), "ratio")
        out["world.apply_pick_place.miss_frac"] = (_ratio(policy["world.apply_pick_place"][1],
                                                          policy["world.apply_pick_place"][0]), "ratio")
        out["world.apply_push.noop_frac"] = (_ratio(policy["world.apply_push"][1],
                                                    policy["world.apply_push"][0]), "ratio")
        out["benchmark.run_episode.steps_per_episode"] = (_ratio(sum(steps), len(steps)), "steps")
        out["trace.uncovered_frac"] = (_ratio(wall_s - covered, wall_s), "ratio")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
