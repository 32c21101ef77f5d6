import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tablang import benchmark as bm
from tablang import cli, world

GOLDEN = "do(goal(filter(filter(hexagon), blue), filter(filter(box), orange), in), pack)"


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, stdin=None, cwd=None):
    # pytest's pythonpath setting reaches only its own process.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "tablang.cli", *args],
        capture_output=True, text=True, input=stdin, cwd=cwd, env=env, timeout=120,
    )


@pytest.fixture()
def scene_file(tmp_path):
    ep = bm.generate_episode(bm.TaskSpec("packing_shapes"), 7)
    path = tmp_path / "scene.json"
    world.save_scene(path, ep.scene)
    return path, ep


def test_parse_golden():
    out = run_cli("parse", "pack the blue hexagon in the orange box")
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == GOLDEN


def test_parse_oov_report():
    out = run_cli("parse", "pack the daxy shape into the box")
    assert out.returncode == 0
    assert "filter(filter(shape), daxy)" in out.stdout
    assert "daxy: N/N" in out.stdout


def test_parse_empty_instruction():
    assert run_cli("parse", "").returncode == 2


def test_parse_word_salad():
    assert run_cli("parse", "box pack the").returncode == 2


def test_parse_bad_lexicon_path():
    out = run_cli("parse", "pack the box", "--lexicon", "/nonexistent/lexicon.txt")
    assert out.returncode == 1


@pytest.mark.parametrize("template", [
    "frobnicate(filter(red))",                # unknown operation
    "relate(filter(red), filter(blue))",      # wrong arity
    "objunion(red, filter(blue))",            # a word in a subprogram slot
    "filter(filter(red), filter(blue))",      # a subprogram in a word slot
    "filter(y, red)",                         # an unbound variable
    "filter(<word>)",                         # an open word slot
])
def test_parse_bad_lexicon_template(tmp_path, template):
    path = tmp_path / "bad.txt"
    path.write_text(f"box\tN\tfilter(box)\nfoo\tN\t{template}\n")
    out = run_cli("parse", "pack the foo", "--lexicon", str(path))
    assert out.returncode == 1
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


def test_run_writes_outputs(tmp_path, scene_file):
    path, ep = scene_file
    out_dir = tmp_path / "out"
    out = run_cli("run", "--scene", str(path), "--output-dir", str(out_dir),
                  ep.instruction)
    assert out.returncode == 0, out.stderr
    action = json.loads((out_dir / "action.json").read_text())
    assert action["primitive"] == "pick_place"
    assert (out_dir / "before.ppm").exists()
    assert (out_dir / "after.ppm").exists()
    assert (out_dir / "pick.pgm").exists()
    assert (out_dir / "place_r00.pgm").exists()
    assert (out_dir / "scene_after.json").exists()
    after = world.load_scene(out_dir / "scene_after.json")
    task = bm.TaskSpec(ep.task_name)
    assert bm.score_success(task, after, ep) == 1.0


def test_run_embedding_backend_matches_oracle(tmp_path, scene_file):
    path, ep = scene_file
    a = tmp_path / "oracle"
    b = tmp_path / "embed"
    r1 = run_cli("run", "--scene", str(path), "--output-dir", str(a), ep.instruction)
    r2 = run_cli("run", "--scene", str(path), "--output-dir", str(b),
                 "--backend", "embedding", ep.instruction)
    assert r1.returncode == 0 and r2.returncode == 0
    pa = json.loads((a / "action.json").read_text())
    pb = json.loads((b / "action.json").read_text())
    assert pa["pick"] == pb["pick"]
    assert pa["place"] == pb["place"]


def test_run_missing_scene(tmp_path):
    out = run_cli("run", "--scene", str(tmp_path / "nope.json"),
                  "--output-dir", str(tmp_path / "o"), "pack the box")
    assert out.returncode == 1


def test_run_out_of_bounds_scene(tmp_path):
    bad = world.Scene(64, 48, (world.SceneObject(
        1, world.ITEM, "disc", "red", 2.0, 24.0, size=5.0),))
    path = tmp_path / "bad.json"
    world.save_scene(path, bad)
    out = run_cli("run", "--scene", str(path), "--output-dir",
                  str(tmp_path / "o"), "pack the disc in the brown box")
    assert out.returncode == 1
    assert "exits the workspace" in out.stderr


def test_run_scene_outside_workspace(tmp_path):
    bad = world.Scene(24, 16, (world.SceneObject(
        1, world.ITEM, "hexagon", "red", -40.0, 8.0, size=4.0),))
    path = tmp_path / "outside.json"
    world.save_scene(path, bad)
    out = run_cli("run", "--scene", str(path), "--output-dir",
                  str(tmp_path / "o"), "pack the hexagon in the brown box")
    assert out.returncode == 1
    assert "centre outside the workspace" in out.stderr


def test_run_parse_failure(tmp_path, scene_file):
    path, _ = scene_file
    out = run_cli("run", "--scene", str(path), "--output-dir",
                  str(tmp_path / "o"), "box pack the")
    assert out.returncode == 2


def test_run_execution_failure(tmp_path, scene_file):
    path, _ = scene_file
    out = run_cli("run", "--scene", str(path), "--output-dir",
                  str(tmp_path / "o"), "pack the daxy shape into the box")
    assert out.returncode == 3


def test_eval_round_trip_byte_identical(tmp_path):
    config = {"tasks": ["packing_shapes"], "episodes": 3, "seed": 1,
              "rotations": 12, "backend": "oracle"}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    r1 = run_cli("eval", "--config", str(cfg), "--output-dir", str(d1))
    r2 = run_cli("eval", "--config", str(cfg), "--output-dir", str(d2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    payload = json.loads((d1 / "report.json").read_text())
    assert payload["per_task"]["packing_shapes/seen"] == 100.0


def test_eval_zero_episodes_is_config_error(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tasks": ["packing_shapes"], "episodes": 0}))
    out = run_cli("eval", "--config", str(cfg), "--output-dir", str(tmp_path / "o"))
    assert out.returncode == 1


def test_eval_unknown_task_is_config_error(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tasks": ["towers_of_hanoi"], "episodes": 1}))
    out = run_cli("eval", "--config", str(cfg), "--output-dir", str(tmp_path / "o"))
    assert out.returncode == 1


def test_repl_session(tmp_path, scene_file):
    path, ep = scene_file
    out_dir = tmp_path / "repl"
    shape = [o for o in ep.scene.objects if o.id in ep.goal.target_ids][0]
    script = f"pack the {shape.shape} into the brown box\n:render\n:undo\n:foo\n:quit\n"
    out = run_cli("repl", "--scene", str(path), "--output-dir", str(out_dir),
                  stdin=script)
    assert out.returncode == 0
    assert "pick_place: pick" in out.stdout
    assert "wrote render_000.ppm" in out.stdout
    assert "undone" in out.stdout
    assert "unknown command :foo" in out.stdout
    assert (out_dir / "render_000.ppm").exists()
    transcript = (out_dir / "transcript.txt").read_text()
    assert ":undo" in transcript and "undone" in transcript


def test_repl_error_keeps_session_alive(tmp_path, scene_file):
    path, _ = scene_file
    script = "box pack the\n:quit\n"
    out = run_cli("repl", "--scene", str(path), "--output-dir",
                  str(tmp_path / "r"), stdin=script)
    assert out.returncode == 0
    assert "error:" in out.stdout


def assert_clean_exit_1(out):
    assert out.returncode == 1, out.stderr
    assert "error:" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command", ["run", "repl"])
def test_session_missing_weights(tmp_path, scene_file, command):
    path, ep = scene_file
    out = run_cli(command, "--scene", str(path), "--output-dir", str(tmp_path / "o"),
                  "--backend", "embedding", "--weights", str(tmp_path / "nope.txt"),
                  *([ep.instruction] if command == "run" else []), stdin=":quit\n")
    assert_clean_exit_1(out)


@pytest.mark.parametrize("command", ["run", "repl", "eval"])
def test_zero_rotations(tmp_path, scene_file, command):
    path, ep = scene_file
    if command == "eval":
        where = ["--tasks", "packing_shapes", "--episodes", "1"]
    else:
        where = ["--scene", str(path)] + ([ep.instruction] if command == "run" else [])
    out = run_cli(command, "--rotations", "0", "--output-dir", str(tmp_path / "o"),
                  *where, stdin=":quit\n")
    assert_clean_exit_1(out)


def test_eval_config_zero_rotations(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"tasks": ["packing_shapes"], "episodes": 1, "rotations": 0}))
    assert_clean_exit_1(run_cli("eval", "--config", str(cfg),
                                "--output-dir", str(tmp_path / "o")))


def test_parse_zero_top_k():
    assert_clean_exit_1(run_cli("parse", "pack the box", "--top-k", "0"))


@pytest.mark.parametrize("flags", [
    ["--lexicon", "/nonexistent/lexicon.txt"],
    ["--backend", "embedding", "--weights", "/nonexistent/weights.txt"],
])
def test_eval_flags_missing_file(tmp_path, flags):
    out = run_cli("eval", "--tasks", "packing_shapes", "--episodes", "1",
                  "--output-dir", str(tmp_path / "o"), *flags)
    assert_clean_exit_1(out)


# Loads fine, but its cv expects 2 features where the scene has 11.
NARROW_CV = "cv 2 2\n1 0\n0 1\ncl 2 2\n1 0\n0 1\n"


@pytest.mark.parametrize("text", [
    "cv 2 2\n1 0\n0 1\ncl 2 3\n1 0 0\n0 1 0\n",  # cl not square
    "cv 2 2\n1 0\n0 nan\ncl 2 2\n1 0\n0 1\n",    # non-finite entry
], ids=["non_square_cl", "nan"])
@pytest.mark.parametrize("command", ["run", "repl", "eval"])
def test_unusable_weights_file(tmp_path, scene_file, command, text):
    path, ep = scene_file
    weights = tmp_path / "w.txt"
    weights.write_text(text)
    if command == "eval":
        where = ["--tasks", "packing_shapes", "--episodes", "1"]
    else:
        where = ["--scene", str(path)] + ([ep.instruction] if command == "run" else [])
    out = run_cli(command, "--backend", "embedding", "--weights", str(weights),
                  "--output-dir", str(tmp_path / "o"), *where, stdin=":quit\n")
    assert_clean_exit_1(out)


def test_run_feature_width_mismatch(tmp_path, scene_file):
    path, ep = scene_file
    weights = tmp_path / "w.txt"
    weights.write_text(NARROW_CV)
    out = run_cli("run", "--scene", str(path), "--backend", "embedding",
                  "--weights", str(weights), "--output-dir", str(tmp_path / "o"),
                  ep.instruction)
    assert out.returncode == 3, out.stderr
    assert "Traceback" not in out.stderr


def test_repl_feature_width_mismatch(tmp_path, scene_file):
    path, ep = scene_file
    weights = tmp_path / "w.txt"
    weights.write_text(NARROW_CV)
    out = run_cli("repl", "--scene", str(path), "--backend", "embedding",
                  "--weights", str(weights), "--output-dir", str(tmp_path / "o"),
                  stdin=f"{ep.instruction}\n:quit\n")
    assert out.returncode == 0, out.stderr
    assert "error: cv expects dim 2" in out.stdout


@pytest.mark.parametrize("bad_line", [
    "foo\tN/Q\tfilter(foo)",               # unknown category primitive
    "foo\tN\tfrobnicate(filter(red))",     # unknown template operation
    "foo\tN\tfilter(foo)\tabc",            # weight is not a number
    "foo\tN\tfilter(foo)\t-1",             # weight is not positive
    "foo\tN\tfilter(foo)\tnan",            # weight is not finite
    "foo\tN\tfilter(foo)\tinf",
    pytest.param("foo\t" + "(" * 600 + "N" + ")" * 600 + "\tfilter(foo)",
                 id="category_nested_600_deep"),
    pytest.param("foo\tN\t" + "filter(" * 600 + "scene()" + ", red)" * 600,
                 id="template_filter_nested_600_deep"),
    pytest.param("foo\tN\t" + "\\x." * 600 + "x", id="template_binders_nested_600_deep"),
])
def test_parse_bad_lexicon_entry_names_line(tmp_path, bad_line):
    path = tmp_path / "bad.txt"
    path.write_text(f"box\tN\tfilter(box)\n{bad_line}\n")
    out = run_cli("parse", "pack the foo", "--lexicon", str(path))
    assert_clean_exit_1(out)
    assert out.stderr.startswith("error: line 2:")


def set_on_first(kind, key, value):
    def mutate(data):
        next(o for o in data["objects"] if o["kind"] == kind)[key] = value
        return data
    return mutate


@pytest.mark.parametrize("mutate", [
    lambda data: [],
    lambda data: None,
    lambda data: {**data, "objects": {}},
    set_on_first("container", "shape", "disc"),
    set_on_first("item", "angle", math.inf),
    set_on_first("item", "attributes", "star"),
    set_on_first("item", "x", None),
], ids=["list", "null", "objects_not_list", "disc_container", "infinite_angle",
        "string_attributes", "null_x"])
def test_run_rejects_malformed_scene(tmp_path, scene_file, capsys, mutate):
    path, ep = scene_file
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    code = cli.main(["run", "--scene", str(path), "--output-dir", str(tmp_path / "o"),
                     ep.instruction])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("config", [
    [1],
    {"tasks": 5},
    {"tasks": [5]},
    {"tasks": ["packing_shapes"], "episodes": 1, "grounding": [0, 0]},
    {"tasks": ["packing_shapes"], "episodes": 1, "grounding": [-3, 5]},
    {"tasks": ["packing_shapes"], "episodes": 1, "grounding": [16.5, 32]},
    {"tasks": ["packing_shapes"], "episodes": 1, "lexicon": 0},
    {"tasks": ["packing_shapes"], "episodes": 1, "weights": 0},
    {"tasks": ["packing_shapes"], "episodes": 1.9},
    {"tasks": ["packing_shapes"], "episodes": 1, "rotations": True},
    {"tasks": ["packing_shapes"], "episodes": 1, "seed": "3"},
])
def test_eval_malformed_config_is_config_error(tmp_path, config):
    """A mistyped field exits 1; it is neither truncated nor read as a path
    (a lexicon of 0 would be stdin, which is empty here rather than
    inherited, so a run that reads it cannot block)."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = run_cli("eval", "--config", str(cfg), "--output-dir", str(tmp_path / "o"), stdin="")
    assert_clean_exit_1(out)
    assert out.stderr.startswith("config error:")


@pytest.mark.parametrize("source", ["flag", "config"])
def test_eval_negative_seed_is_config_error(tmp_path, source):
    if source == "flag":
        where = ["--tasks", "packing_shapes", "--episodes", "1", "--seed", "-1"]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"tasks": ["packing_shapes"], "episodes": 1, "seed": -3}))
        where = ["--config", str(cfg)]
    out = run_cli("eval", *where, "--output-dir", str(tmp_path / "o"))
    assert_clean_exit_1(out)
    assert out.stderr.startswith("config error:")
