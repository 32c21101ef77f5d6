"""Self-test of the tablang benchmark.

Runs the benchmark tiny (2 episodes per task, seed 1, which is not the
default seed) on every workload and checks that:

- every end-to-end and per-layer metric named in BENCHMARK.json prints, with
  its unit;
- the output check passes (report hashes match reference.json, and traced
  and untraced passes give the same hash);
- two traced runs give identical per-layer counts (every per-layer metric
  except self times and the trace.* figures).

Run from the root of a checkout:  python3 benchmarks/selftest.py
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
EPISODES = 2
TIMEOUT_S = 170


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--episodes", str(EPISODES)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, spec: list[dict], where: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: output check failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int), where
    got = result["metrics"]
    assert set(got) == {m["name"] for m in spec}, \
        f"{where}: metric names differ: {sorted(set(got) ^ {m['name'] for m in spec})}"
    for m in spec:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], f"{where}: {m['name']} unit {value['unit']}"
        assert isinstance(value["value"], (int, float)), f"{where}: {m['name']}"


def counts(result: dict, spec: list[dict]) -> dict:
    return {m["name"]: result["metrics"][m["name"]]["value"] for m in spec
            if m["unit"] != "s" and not m["name"].startswith("trace.")}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in bench["workloads"]):
        check_metrics(run(wl, 0), bench["end_to_end"], f"{wl} trace 0")
        first, second = run(wl, 1), run(wl, 1)
        check_metrics(first, bench["per_layer"], f"{wl} trace 1")
        check_metrics(second, bench["per_layer"], f"{wl} trace 1 (repeat)")
        a, b = counts(first, bench["per_layer"]), counts(second, bench["per_layer"])
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        assert not diff, f"{wl}: per-layer counts differ between runs: {diff}"
        print(f"ok {wl}: {len(bench['end_to_end'])} end-to-end metrics, "
              f"{len(bench['per_layer'])} per-layer metrics, {len(a)} counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
