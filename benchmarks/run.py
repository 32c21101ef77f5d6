"""tablang benchmark: evaluation throughput, episode latency and per-layer
self time on three fixed workloads.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload oracle-seen --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics. See README.md in
this directory for the metrics, the workloads and why each was chosen.

``--write-reference`` recomputes the report hashes the output check compares
against; run it only in a change whose stated purpose is a behaviour change.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# name -> (split, backend). Every workload runs all nine task families.
WORKLOADS = {
    "oracle-seen": ("seen", "oracle"),
    "oracle-unseen": ("unseen", "oracle"),
    "embedding-seen": ("seen", "embedding"),
}
EPISODES_PER_TASK = 20   # one pass = 9 tasks x 20 episodes = 180 episodes
WINDOWS = 32             # pass k of a run uses episode seeds [20w, 20w + 20), w = order[k]
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60

# Runs in a fresh interpreter. numpy is imported before the clock starts: its
# import is a fixed cost tablang cannot change, and it was the noisiest part
# of set-up. The host-speed kernel is timed before and after set-up (median
# of 3 each) to correct it.
SETUP_PROBE = """
import statistics, sys, time
import numpy
sys.path.insert(0, sys.argv[3])
import hostspeed
before = statistics.median(hostspeed.calibrate() for _ in range(3))
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tablang
from tablang import backends, ccg
lexicon = ccg.default_lexicon()
backend = backends.OracleBackend() if sys.argv[2] == "oracle" else backends.EmbeddingBackend()
setup = time.perf_counter() - t0
after = statistics.median(hostspeed.calibrate() for _ in range(3))
print(setup, (before + after) / 2)
"""


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_tablang():
    """Import tablang from this checkout's src/, never from an installed copy."""
    if not (SRC / "tablang" / "__init__.py").is_file():
        fail(f"no tablang sources under {SRC.relative_to(ROOT)}/; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tablang
    if Path(tablang.__file__).resolve().parent != SRC / "tablang":
        fail(f"imported tablang from {tablang.__file__}, not from {SRC}")
    return tablang


def window_order(seed: int) -> list[int]:
    """The seeded order in which a run visits the episode windows."""
    return random.Random(seed).sample(range(WINDOWS), WINDOWS)


def reference_key(workload: str, episodes: int, window: int) -> str:
    return f"{workload}/{episodes}/{window}"


class Workload:
    """One workload's inputs and the untouched tablang entry points."""

    def __init__(self, tablang, name: str, episodes: int):
        split, backend = WORKLOADS[name]
        bench = tablang.benchmark
        self.name = name
        self.episodes = episodes
        self.bench = bench
        self.tasks = [bench.TaskSpec(t, split) for t in bench.TASK_NAMES]
        self.lexicon = tablang.ccg.default_lexicon()
        backends = tablang.backends
        self.backend = backends.OracleBackend() if backend == "oracle" else backends.EmbeddingBackend()

    def run_pass(self, window: int) -> dict:
        """One ``run_suite`` call over a window. Times every
        ``generate_episode`` and ``run_episode`` call, and the host-speed
        kernel before each episode (outside the episode's timings)."""
        bench = self.bench
        generate, run = bench.generate_episode, bench.run_episode
        episodes: list[list] = []   # [episode id, kernel_s, generate_s, run_s]
        calib_s = 0.0

        def timed_generate(task, seed, *args, **kwargs):
            nonlocal calib_s
            t = time.perf_counter()
            kernel = hostspeed.calibrate()
            calib_s += time.perf_counter() - t
            t = time.perf_counter()
            try:
                return generate(task, seed, *args, **kwargs)
            finally:
                episodes.append([layers.episode_id(task.name, task.split, seed), kernel,
                                 time.perf_counter() - t, 0.0])

        def timed_run(*args, **kwargs):
            t = time.perf_counter()
            try:
                return run(*args, **kwargs)
            finally:
                episodes[-1][3] = time.perf_counter() - t

        bench.generate_episode, bench.run_episode = timed_generate, timed_run
        start = time.perf_counter()
        try:
            report = bench.run_suite(self.tasks, self.episodes, self.backend, self.lexicon,
                                     seed=window * self.episodes)
        except Exception as exc:  # a crashed suite is a failed pass, not a crashed benchmark
            print(f"error: {self.name} window {window}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            report = None
        finally:
            bench.generate_episode, bench.run_episode = generate, run
        wall = time.perf_counter() - start
        size = len(self.tasks) * self.episodes
        if report is None:
            return {"window": window, "wall_s": wall, "calib_s": calib_s, "episodes": episodes,
                    "attempted": size, "failed": size, "hash": None, "scores": []}
        records = report.episodes
        return {
            "window": window,
            "wall_s": wall,
            "calib_s": calib_s,
            "episodes": episodes,
            "attempted": len(records),
            "failed": sum(1 for r in records if r.get("failure") is not None),
            "hash": hashlib.sha256(bench.report_to_json(report).encode("utf-8")).hexdigest(),
            "scores": [r["score"] for r in records],
        }


def measure_setup(backend: str) -> list[tuple[float, float]]:
    """Import tablang, load the default lexicon and build the backend in
    fresh interpreters, one after the other; (set-up seconds, kernel
    seconds) per repeat."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), backend, str(HERE)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            fail(f"setup probe failed: {proc.stderr.strip()}")
        setup, kernel = proc.stdout.split()
        out.append((float(setup), float(kernel)))
    return out


def check_hash(workload: str, episodes: int, result: dict, reference: dict) -> bool:
    key = reference_key(workload, episodes, result["window"])
    want = reference.get(key)
    if result["hash"] is None:
        return False
    if want is None:
        print(f"error: no reference hash for {key}", file=sys.stderr)
        return False
    if want != result["hash"]:
        print(f"error: report hash mismatch for {key}: {result['hash']} != {want}",
              file=sys.stderr)
        return False
    return True


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (``statistics.quantiles``, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def provenance(tablang) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "tablang").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tablang": tablang.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def scale(episode: list) -> float:
    """Host-speed correction for one episode's times."""
    return hostspeed.REFERENCE_S / episode[1]


def busy_s(result: dict) -> float:
    """Corrected generation + run seconds over a pass."""
    return sum(scale(e) * (e[2] + e[3]) for e in result["episodes"])


def run_untraced(wl: Workload, order: list[int], seconds: float, reference: dict) -> tuple:
    """Passes over successive windows while the next one, if it takes as
    long as the last, ends within ``seconds``; at least one pass.

    Times are corrected for host speed (see hostspeed.py): each episode's
    generation and run times are scaled by the kernel timing taken just
    before it. The raw figures go to the info line."""
    setup = measure_setup(WORKLOADS[wl.name][1])
    passes = []
    start = time.perf_counter()
    for window in order:
        passes.append(wl.run_pass(window))
        if time.perf_counter() - start + passes[-1]["wall_s"] > seconds:
            break
    correct = all(check_hash(wl.name, wl.episodes, p, reference) for p in passes)
    episodes = [e for p in passes for e in p["episodes"]]
    latencies_ms = [1000.0 * scale(e) * e[3] for e in episodes]
    raw_ms = [1000.0 * e[3] for e in episodes]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # The first pass always runs, so its mean score is fixed by the seed.
    first = passes[0]["scores"] or [0.0]
    metrics = {
        "setup_s": (statistics.median(t * (hostspeed.REFERENCE_S / k) ** hostspeed.SETUP_EXPONENT
                                      for t, k in setup), "s"),
        "episodes_per_s": (attempted / sum(busy_s(p) for p in passes), "1/s"),
        "episode_ms.p50": (statistics.median(latencies_ms), "ms"),
        "episode_ms.p90": (percentile(latencies_ms, 90), "ms"),
        "score_mean": (100.0 * statistics.fmean(first), "0-100"),
        "completed_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "passes": [{k: p[k] for k in ("window", "wall_s", "calib_s", "attempted", "failed", "hash")}
                   for p in passes],
        "latency_samples": len(latencies_ms),
        "host_speed": statistics.median(scale(e) for e in episodes),
        "raw": {
            "setup_s": statistics.median(t for t, _ in setup),
            "episodes_per_s": attempted / sum(e[2] + e[3] for e in episodes),
            "episode_ms.p50": statistics.median(raw_ms),
            "episode_ms.p90": percentile(raw_ms, 90),
        },
    }
    return correct, attempted, failed, metrics, detail


def run_traced(tablang, wl: Workload, order: list[int], reference: dict, trace_path: Path) -> tuple:
    """One traced pass, then the same window untraced: the per-layer
    metrics, the tracing overhead and a check that tracing changes no
    report byte. Self times and the overhead are host-speed corrected."""
    window = order[0]
    tracer = layers.Tracer()
    with tracer.patched(tablang):
        traced = wl.run_pass(window)
    plain = wl.run_pass(window)
    correct = check_hash(wl.name, wl.episodes, traced, reference)
    if traced["hash"] != plain["hash"]:
        print(f"error: traced report hash {traced['hash']} != untraced {plain['hash']}",
              file=sys.stderr)
        correct = False
    tracer.write(trace_path)
    metrics = tracer.layer_metrics(traced["wall_s"] - traced["calib_s"],
                                   {e[0]: scale(e) for e in traced["episodes"]})
    metrics["trace.overhead_frac"] = (busy_s(traced) / busy_s(plain) - 1.0, "ratio")
    detail = {"window": window, "traced_hash": traced["hash"], "untraced_hash": plain["hash"],
              "spans": len(tracer.spans), "trace_file": str(trace_path.relative_to(ROOT))}
    return correct, traced["attempted"], traced["failed"], metrics, detail


def write_reference(tablang, episode_counts: list[int]) -> None:
    """Recompute every reference hash (all workloads, all windows)."""
    hashes = {}
    for name in WORKLOADS:
        for episodes in episode_counts:
            wl = Workload(tablang, name, episodes)
            for window in range(WINDOWS):
                result = wl.run_pass(window)
                if result["hash"] is None:
                    fail(f"{name} window {window} crashed; no reference written")
                hashes[reference_key(name, episodes, window)] = result["hash"]
                print(f"{name} {episodes} {window} {result['hash'][:12]} "
                      f"{result['wall_s']:.2f}s", file=sys.stderr, flush=True)
    REFERENCE.write_text(json.dumps({"hashes": hashes}, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="orders the episode windows a run visits (default 0)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="untraced measuring time; a traced run does one fixed pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--episodes", type=int, default=EPISODES_PER_TASK,
                    help="episodes per task in a pass (the self-test uses a small value)")
    ap.add_argument("--write-reference", action="store_true",
                    help="recompute reference.json for 20 and 2 episodes per task")
    args = ap.parse_args(argv)

    tablang = import_tablang()
    if args.write_reference:
        write_reference(tablang, [EPISODES_PER_TASK, 2])
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not REFERENCE.is_file():
        fail(f"missing {REFERENCE.relative_to(ROOT)}")
    reference = json.loads(REFERENCE.read_text())["hashes"]

    wl = Workload(tablang, args.workload, args.episodes)
    order = window_order(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        correct, attempted, failed, metrics, detail = run_traced(
            tablang, wl, order, reference, OUT / f"spans-{stem}.jsonl")
    else:
        correct, attempted, failed, metrics, detail = run_untraced(
            wl, order, args.seconds, reference)

    info = {"workload": args.workload, "seed": args.seed, "episodes_per_task": args.episodes,
            "provenance": provenance(tablang), **detail}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps({**info, **result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
