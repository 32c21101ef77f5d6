"""Command-line interface: parse instructions, run them on scenes, evaluate
task suites, and drive an interactive session.

Exit codes: 0 ok, 1 I/O or config error, 2 parse failure, 3 grounding or
execution failure. All file output stays under --output-dir.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import benchmark, ccg, dsl, formats, world
from .backends import GroundingError, make_backend
from .grounding import DimMismatch
from .executor import (
    EmptyGrounding,
    ExecutionContext,
    NoFeasiblePlace,
    PoseGrid,
    UnknownRelation,
    execute,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_EXEC = 3


def _load_lexicon(path: str | None) -> ccg.Lexicon:
    if path is None:
        return ccg.default_lexicon()
    return ccg.Lexicon.from_file(path)


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_session(args):
    """(lexicon, scene, output dir, backend, pose grid) for run and repl, or
    None after printing the error. Actions never change a scene's width or
    height, so one grid serves a whole session."""
    try:
        lexicon = _load_lexicon(args.lexicon)
        scene = world.load_scene(args.scene)
        world.check_bounds(scene)
        backend = make_backend(args.backend, weights_path=args.weights)
        grid = PoseGrid(scene.height, scene.width, args.rotations)
        out = _out_dir(args)
    except (OSError, ValueError, KeyError, ccg.LexiconError, world.OutOfBounds) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return lexicon, scene, out, backend, grid


def cmd_parse(args) -> int:
    try:
        if args.top_k < 1:
            raise ValueError("--top-k must be >= 1")
        lexicon = _load_lexicon(args.lexicon)
    except (OSError, ValueError, ccg.LexiconError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    tokens = ccg.tokenize(args.instruction, lexicon)
    try:
        derivations = ccg.parse(tokens, lexicon, k=args.top_k)
    except ccg.NoParse as exc:
        print(f"no parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    for i, d in enumerate(derivations):
        print(dsl.serialize(d.program))
        if args.verbose or len(derivations) > 1 or d.oov_assignments:
            print(f"  # rank {i} log-score {d.log_score:.4f}")
        for a in d.oov_assignments:
            print(f"  # novel word {a.describe()} (log prior {a.log_prior:.4f})")
    return EXIT_OK


def cmd_run(args) -> int:
    session = _load_session(args)
    if session is None:
        return EXIT_IO
    lexicon, scene, out, backend, grid = session
    tokens = ccg.tokenize(args.instruction, lexicon)
    try:
        derivation = ccg.parse(tokens, lexicon, k=1)[0]
    except ccg.NoParse as exc:
        print(f"no parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    program = derivation.program
    ctx = ExecutionContext(scene, backend, grid)
    try:
        result = execute(program, ctx)
    except (EmptyGrounding, UnknownRelation, NoFeasiblePlace, GroundingError,
            DimMismatch) as exc:
        print(f"execution failed: {exc}", file=sys.stderr)
        return EXIT_EXEC

    def dump_render(prefix, rendered):
        formats.write_ppm(out / f"{prefix}.ppm", rendered.image[:, :, :3])
        height = rendered.image[:, :, 3]
        scale = height.max() if height.max() > 0 else 1.0
        formats.write_pgm(out / f"{prefix}_height.pgm", height / scale)
        seg = rendered.segmentation.astype(float)
        ids = seg.max() if seg.max() > 0 else 1.0
        formats.write_pgm(out / f"{prefix}_seg.pgm", seg / ids)

    dump_render("before", world.render(scene))
    after = scene
    for params in result.all_params:
        after, _ = world.apply(after, params, args.rotations)
    dump_render("after", world.render(after))
    world.save_scene(out / "scene_after.json", after)

    formats.write_pgm(out / "pick.pgm", result.pick_map.values)
    for r in range(result.place_map.shape[0]):
        formats.write_pgm(out / f"place_r{r:02d}.pgm", result.place_map[r])
    map_files = {}
    for path, gmap in sorted(result.intermediates.items()):
        fname = f"map_{path.replace('.', '_')}.pgm"
        formats.write_pgm(out / fname, gmap.values)
        map_files[path] = fname

    def pose_dict(p):
        return {"u": p.u, "v": p.v, "r": p.r}

    first = result.all_params[0]
    action = {
        "instruction": args.instruction,
        "program": dsl.serialize(program),
        "primitive": first.primitive,
        "pick": pose_dict(first.pick),
        "place": pose_dict(first.place),
        "actions": [
            {"primitive": p.primitive, "pick": pose_dict(p.pick), "place": pose_dict(p.place)}
            for p in result.all_params
        ],
        "pick_score": float(result.pick_map.values.max()),
        "place_score": float(result.place_map.max()),
        "intermediates": map_files,
        "novel_words": [a.describe() for a in derivation.oov_assignments],
    }
    (out / "action.json").write_text(json.dumps(action, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"program": action["program"], "primitive": action["primitive"],
                      "pick": action["pick"], "place": action["place"]}, sort_keys=True))
    return EXIT_OK


def _tasks_from_config(config: dict) -> list[benchmark.TaskSpec]:
    if not isinstance(config, dict) or not isinstance(config.get("tasks"), list):
        raise ValueError('the config must be an object with a "tasks" list')
    tasks = []
    for entry in config["tasks"]:
        if isinstance(entry, str):
            tasks.append(benchmark.TaskSpec(entry, config.get("split", "seen")))
        elif isinstance(entry, dict):
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
        episodes = int(config.get("episodes", 10))
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        seed = int(config.get("seed", 0))
        rotations = int(config.get("rotations", 12))
        if rotations < 1:
            raise ValueError("rotations must be >= 1")
        lexicon = _load_lexicon(config.get("lexicon"))
        ground_shape = None
        if config.get("grounding"):
            gh, gw = config["grounding"]
            ground_shape = (int(gh), int(gw))
        backend = make_backend(config.get("backend", "oracle"), ground_shape,
                               config.get("weights"))
        out = _out_dir(args)
    except (OSError, ValueError, TypeError, KeyError, ccg.LexiconError) as exc:
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
    session = _load_session(args)
    if session is None:
        return EXIT_IO
    lexicon, scene, out, backend, grid = session
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
            tokens = ccg.tokenize(line, lexicon)
            derivation = ccg.parse(tokens, lexicon, k=1)[0]
            ctx = ExecutionContext(history[-1], backend, grid)
            result = execute(derivation.program, ctx)
            new_scene = history[-1]
            for params in result.all_params:
                new_scene, _ = world.apply(new_scene, params, args.rotations)
            history.append(new_scene)
            p = result.all_params[0]
            msg = (f"{dsl.serialize(derivation.program)}\n"
                   f"{p.primitive}: pick ({p.pick.u},{p.pick.v}) -> "
                   f"place ({p.place.u},{p.place.v},{p.place.r})\n"
                   + _object_table(new_scene))
        except (ccg.NoParse, EmptyGrounding, UnknownRelation, NoFeasiblePlace,
                GroundingError, DimMismatch) as exc:
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
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
