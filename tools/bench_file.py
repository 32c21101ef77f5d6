"""Collect the benchmark's output into one BENCH_<n>.json at the repo root.

For every workload BENCHMARK.json names, and for --trace 0 and --trace 1,
runs BENCHMARK.json's command (``python3 benchmarks/run.py``) with
``--workload W --seed 0 --trace T`` and keeps the last two lines it prints:
the info line (provenance, ``src_lines``) and the result line (``correct``
and the metrics). Nothing is computed here; the lines are stored as parsed.

    python3 tools/bench_file.py 10    # writes BENCH_10.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command: list[str], workload: str, trace: int) -> dict:
    stdout = subprocess.run(
        [*command, "--workload", workload, "--seed", "0", "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    info, result = (json.loads(line) for line in stdout.splitlines()[-2:])
    return {"info": info, "result": result}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="the file written is BENCH_<n>.json")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {
        f"{w['name']}/trace{trace}": run(bench["command"], w["name"], trace)
        for w in bench["workloads"]
        for trace in (0, 1)
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(runs, indent=2) + "\n", encoding="utf-8")
    print(out.name)


if __name__ == "__main__":
    main()
