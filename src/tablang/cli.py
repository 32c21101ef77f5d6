"""Command-line interface: parse instructions, run them on scenes, evaluate
task suites, and drive an interactive session.

Commands raise, and main maps each error to its exit code and message:
0 ok, 1 I/O or config error, 2 parse failure, 3 grounding or execution
failure. All file output stays under --output-dir.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import benchmark, ccg, dsl, formats, world
from .backends import make_backend
from .executor import MAX_ROTATIONS, PoseGrid
from .grounding import ExecutionError

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_EXEC = 3

# What loading a lexicon, scene, weights file or eval config, or writing an
# output file, may raise.
LOAD_ERRORS = (OSError, ValueError, TypeError, KeyError, OverflowError, ccg.LexiconError,
               world.OutOfBounds)


def _load_lexicon(path: str | None) -> ccg.Lexicon:
    return ccg.default_lexicon() if path is None else ccg.Lexicon.from_file(path)


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_session(args):
    """(lexicon, scene, output dir, backend, pose grid) for run and repl.
    Actions never change a scene's width or height, so one grid serves a
    whole session."""
    lexicon = _load_lexicon(args.lexicon)
    scene = world.load_scene(args.scene)
    world.check_bounds(scene)
    backend = make_backend(args.backend, weights_path=args.weights)
    grid = PoseGrid(scene.height, scene.width, args.rotations)
    return lexicon, scene, _out_dir(args), backend, grid


def cmd_parse(args) -> int:
    if args.top_k < 1:
        raise ValueError("--top-k must be >= 1")
    lexicon = _load_lexicon(args.lexicon)
    derivations = ccg.parse(ccg.tokenize(args.instruction, lexicon), lexicon, k=args.top_k)
    for i, d in enumerate(derivations):
        print(dsl.serialize(d.program))
        if args.verbose or len(derivations) > 1 or d.oov_assignments:
            print(f"  # rank {i} log-score {d.log_score:.4f}")
        for a in d.oov_assignments:
            print(f"  # novel word {a.describe()} (log prior {a.log_prior:.4f})")
    return EXIT_OK


def cmd_run(args) -> int:
    lexicon, scene, out, backend, grid = _load_session(args)
    derivation = benchmark.read_instruction(args.instruction, lexicon)
    results, after = benchmark.step(derivation.program, scene, backend, grid)

    for prefix, rendered in (("before", world.render(scene)), ("after", world.render(after))):
        formats.write_ppm(out / f"{prefix}.ppm", rendered.image[:, :, :3])
        for suffix, values in (("height", rendered.image[:, :, 3]),
                               ("seg", rendered.segmentation)):
            top = values.max()
            formats.write_pgm(out / f"{prefix}_{suffix}.pgm", values / top if top > 0 else values)
    world.save_scene(out / "scene_after.json", after)

    # The maps are the first goal's.
    result = results[0]
    formats.write_pgm(out / "pick.pgm", result.pick_map.values)
    for r in range(grid.rotations):
        formats.write_pgm(out / f"place_r{r:02d}.pgm", result.place_plane(r))
    map_files = {}
    for path, gmap in sorted(result.intermediates.items()):
        fname = f"map_{path.replace('.', '_')}.pgm"
        formats.write_pgm(out / fname, gmap.values)
        map_files[path] = fname

    actions = [dataclasses.asdict(r.params) for r in results]
    action = {
        "instruction": args.instruction,
        "program": dsl.serialize(derivation.program),
        **actions[0],
        "actions": actions,
        "pick_score": float(result.pick_map.values.max()),
        "place_score": float(result.place_scores.max()),
        "intermediates": map_files,
        "novel_words": [a.describe() for a in derivation.oov_assignments],
    }
    (out / "action.json").write_text(json.dumps(action, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"program": action["program"], **actions[0]}, sort_keys=True))
    return EXIT_OK


def _tasks_from_config(config: dict) -> list[benchmark.TaskSpec]:
    if not isinstance(config, dict) or not isinstance(config.get("tasks"), list):
        raise ValueError('the config must be an object with a "tasks" list')
    formats.known_keys(config, ("tasks", "split", "episodes", "seed", "rotations", "backend",
                                "lexicon", "weights", "grounding"), "config")
    if not config["tasks"]:
        raise ValueError("the task list is empty")
    tasks = []
    for entry in config["tasks"]:
        if isinstance(entry, str):
            tasks.append(benchmark.TaskSpec(entry, config.get("split", "seen")))
        elif isinstance(entry, dict):
            formats.known_keys(entry, ("name", "split"), "task")
            tasks.append(benchmark.TaskSpec(entry["name"], entry.get("split", "seen")))
        else:
            raise ValueError(f"a task must be a name or an object, not {entry!r}")
    return tasks


def cmd_eval(args) -> int:
    try:
        if args.config:
            config = json.loads(Path(args.config).read_text())
        else:
            if not args.tasks:
                raise ValueError("either --config or --tasks is required")
            config = {
                "tasks": args.tasks.split(","),
                "split": args.split,
                "episodes": args.episodes,
                "seed": args.seed,
                "rotations": args.rotations,
                "backend": args.backend,
                "lexicon": args.lexicon,
                "weights": args.weights,
            }
        tasks = _tasks_from_config(config)
        episodes = formats.json_number("episodes", config.get("episodes", 10), True, 1)
        seed = formats.json_number("seed", config.get("seed", 0), True, 0)
        # run_episode builds its pose grid outside its error handling.
        rotations = formats.json_number("rotations", config.get("rotations", 12), True, 1,
                                        MAX_ROTATIONS)
        for key in ("lexicon", "weights"):
            if not isinstance(config.get(key), (str, type(None))):
                raise ValueError(f"{key} must be a path or null, not {config[key]!r}")
        lexicon = _load_lexicon(config.get("lexicon"))
        ground_shape = config.get("grounding")
        if "grounding" in config:
            if not (isinstance(ground_shape, list) and len(ground_shape) == 2):
                raise ValueError(f"grounding must be [height, width], not {ground_shape!r}")
            ground_shape = tuple(formats.json_number("grounding", n, True, 1, world.MAX_SIDE)
                                 for n in ground_shape)
        backend = make_backend(config.get("backend", "oracle"), ground_shape,
                               config.get("weights"))
        out = _out_dir(args)
    except LOAD_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_IO
    report = benchmark.run_suite(tasks, episodes, backend, lexicon,
                                 seed=seed, rotations=rotations)
    (out / "report.json").write_text(benchmark.report_to_json(report))
    table = benchmark.report_table(report)
    (out / "report.txt").write_text(table)
    print(table, end="")
    return EXIT_OK


def _object_table(scene: world.Scene) -> str:
    lines = [f"{'id':>3} {'kind':<10} {'shape':<10} {'color':<8} {'x':>7} {'y':>7}"]
    for o in scene.objects:
        lines.append(f"{o.id:>3} {o.kind:<10} {o.shape:<10} {o.color:<8} {o.x:>7.1f} {o.y:>7.1f}")
    return "\n".join(lines)


def cmd_repl(args) -> int:
    lexicon, scene, out, backend, grid = _load_session(args)
    history = [scene]
    transcript = []
    render_count = 0
    print("interactive session; :render, :undo, :quit", flush=True)
    for line in sys.stdin:
        line = line.strip()
        transcript.append(f"> {line}")
        if not line:
            continue
        if line.startswith(":"):
            if line == ":quit":
                break
            if line == ":undo":
                if len(history) > 1:
                    history.pop()
                    msg = "undone"
                else:
                    msg = "nothing to undo"
            elif line == ":render":
                rendered = world.render(history[-1])
                name = f"render_{render_count:03d}.ppm"
                formats.write_ppm(out / name, rendered.image[:, :, :3])
                render_count += 1
                msg = f"wrote {name}"
            else:
                msg = f"unknown command {line}"
            print(msg, flush=True)
            transcript.append(msg)
            continue
        try:
            derivation = benchmark.read_instruction(line, lexicon)
            results, new_scene = benchmark.step(derivation.program, history[-1], backend, grid)
            history.append(new_scene)
            msg = "\n".join([dsl.serialize(derivation.program),
                             *(f"{p.primitive}: pick ({p.pick.u},{p.pick.v}) -> "
                               f"place ({p.place.u},{p.place.v},{p.place.r})"
                               for p in (r.params for r in results)),
                             _object_table(new_scene)])
        except (ccg.NoParse, ExecutionError) as exc:
            msg = f"error: {exc}"
        print(msg, flush=True)
        transcript.append(msg)
    (out / "transcript.txt").write_text("\n".join(transcript) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tablang",
        description="Tabletop instructions -> programs -> SE(2) control in a 2D simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scene=False):
        p.add_argument("--lexicon", default=None, help="lexicon file (default: built-in)")
        p.add_argument("--backend", choices=("oracle", "embedding"), default="oracle")
        p.add_argument("--weights", default=None, help="projection weights file (embedding backend)")
        p.add_argument("--rotations", type=int, default=12)
        p.add_argument("--output-dir", default="tablang-out")
        if scene:
            p.add_argument("--scene", required=True, help="scene JSON path")

    p_parse = sub.add_parser("parse", help="parse an instruction to a program")
    p_parse.add_argument("instruction")
    p_parse.add_argument("--lexicon", default=None)
    p_parse.add_argument("--top-k", type=int, default=1)
    p_parse.add_argument("--verbose", action="store_true")
    p_parse.set_defaults(func=cmd_parse)

    p_run = sub.add_parser("run", help="execute an instruction on a scene")
    common(p_run, scene=True)
    p_run.add_argument("instruction")
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="run an evaluation suite")
    common(p_eval)
    p_eval.add_argument("--config", default=None, help="suite config JSON")
    p_eval.add_argument("--tasks", default=None, help="comma-separated task names")
    p_eval.add_argument("--split", choices=("seen", "unseen"), default="seen")
    p_eval.add_argument("--episodes", type=int, default=10)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.set_defaults(func=cmd_eval)

    p_repl = sub.add_parser("repl", help="interactive instruction session")
    common(p_repl, scene=True)
    p_repl.set_defaults(func=cmd_repl)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ccg.NoParse as exc:
        print(f"no parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ExecutionError as exc:  # before LOAD_ERRORS: DimMismatch is also a ValueError
        print(f"execution failed: {exc}", file=sys.stderr)
        return EXIT_EXEC
    except LOAD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
