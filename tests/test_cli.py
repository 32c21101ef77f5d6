import contextlib
import functools
import io
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablang import benchmark as bm
from tablang import ccg, cli, world
from tablang.executor import MAX_ROTATIONS

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


@pytest.mark.parametrize("command", ["run", "eval"])
def test_too_many_rotations(tmp_path, scene_file, command):
    """A rotation count that would size the place scores past memory exits 1
    before anything is allocated (repl loads as run does)."""
    path, ep = scene_file
    if command == "eval":
        where = ["--tasks", "packing_shapes", "--episodes", "1"]
    else:
        where = ["--scene", str(path), ep.instruction]
    out = run_cli(command, "--rotations", str(2 ** 40), "--output-dir", str(tmp_path / "o"),
                  *where)
    assert_clean_exit_1(out)
    assert f"rotations must be <= {MAX_ROTATIONS}" in out.stderr


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
    "cv 3 2\n1 0\n",                                # rows missing
    "cv 2 2\n1 0\n0 1\ncl 2 2\n1 0\n0 1\ncv 2 2\n1 0\n0 1\n",  # cv twice
], ids=["non_square_cl", "nan", "truncated", "duplicate_cv"])
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
    "Cube\tN\tfilter(cube)",             # tokenize lowercases, so never looked up
    "big_box\tN\tfilter(box)",           # tokenize splits on the underscore
    "porcelain  plate\tN\tfilter(plate)",  # two spaces: tokens are joined by one
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
    lambda data: {**data, "width": 128.9},
    lambda data: {**data, "height": "64"},
    lambda data: {**data, "seed": 3.7},
    lambda data: {**data, "seed": True},
    set_on_first("item", "id", 2.7),
    set_on_first("item", "id", "9"),
    set_on_first("item", "x", "20"),
    set_on_first("item", "size", "5"),
    set_on_first("item", "angle", False),
    set_on_first("item", "angel", 1.0),
    lambda data: {**data, "extra": 1},
    set_on_first("item", "x", 10**400),
    lambda data: {**data, "width": 2 ** 40},
    lambda data: {**data, "height": 2 ** 40},
    lambda data: {**data, "width": world.MAX_SIDE + 1},
    lambda data: {**data, "height": 0},
], ids=["list", "null", "objects_not_list", "disc_container", "infinite_angle",
        "string_attributes", "null_x", "float_width", "string_height", "float_seed",
        "bool_seed", "float_id", "string_id", "string_x", "string_size", "bool_angle",
        "unknown_object_key", "unknown_scene_key", "huge_int_x", "huge_width",
        "huge_height", "width_past_max", "zero_height"])
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
    {"tasks": ["packing_shapes"], "episode": 1},
    {"tasks": ["packing_shapes"], "episodes": 1, "extra_key": 3},
    {"tasks": [{"name": "packing_shapes", "spilt": "unseen"}], "episodes": 1},
    {"tasks": [], "episodes": 1},
    {"tasks": ["packing_shapes"], "episodes": 1, "grounding": []},
    {"tasks": ["packing_shapes"], "episodes": 1, "grounding": False},
    {"tasks": ["packing_shapes"], "episodes": 1, "grounding": None},
    {"tasks": ["packing_shapes"], "episodes": 1, "grounding": [16, 32, 1]},
    {"tasks": ["packing_shapes"], "episodes": 1, "grounding": [2 ** 40, 2]},
    {"tasks": ["packing_shapes"], "episodes": 1, "grounding": [16, world.MAX_SIDE + 1]},
    {"tasks": ["packing_shapes"], "episodes": 1, "rotations": 2 ** 40},
    {"tasks": ["packing_shapes"], "episodes": 1, "rotations": MAX_ROTATIONS + 1},
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


# --------------------------------------------------------------------------
# Mutated input files, fed to cli.main in-process

# Small integers keep a mutated episode count, rotation count, grounding
# shape or workspace size cheap to run.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4)


def _entries(node, path=()):
    """The path of every object member and array item under node."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _entries(child, path + (key,))


@st.composite
def mutated_json(draw, doc):
    """A copy of doc with one member renamed, one value replaced by a random
    JSON value, or one member or item dropped; and 1 when that must exit 1
    (a renamed key, or a bool or string where a number was), else None."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_entries(doc))))
    parent, key = functools.reduce(operator.getitem, path[:-1], doc), path[-1]
    ops = ("rename", "replace", "drop") if isinstance(parent, dict) else ("replace", "drop")
    op = draw(st.sampled_from(ops))
    if op == "rename":
        # No scene or config key starts with a capital, so the new name is
        # never another valid key.
        parent[draw(st.from_regex(r"[A-Z][a-z_]{0,5}", fullmatch=True))] = parent.pop(key)
        return doc, 1
    if op == "drop":
        del parent[key]
        return doc, None
    old, parent[key] = parent[key], draw(JSON_VALUES)
    numeric = type(old) in (int, float)
    return doc, 1 if numeric and isinstance(parent[key], (bool, str)) else None


@st.composite
def mutated_weights(draw, text):
    """text truncated before its last character, a matrix renamed or dropped,
    or one token replaced by a random JSON value; and 1 when that must exit
    1 (all but a replaced token), else None."""
    op = draw(st.sampled_from(("truncate", "rename", "drop", "replace")))
    if op == "truncate":
        return text[:draw(st.integers(0, len(text.rstrip()) - 1))], 1
    lines = text.split("\n")
    if op == "replace":
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if line]))
        tokens = lines[i].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = json.dumps(draw(JSON_VALUES))
        lines[i] = " ".join(tokens)
        return "\n".join(lines), None
    i = draw(st.sampled_from([i for i, line in enumerate(lines) if line[:1].isalpha()]))
    name, rows, cols = lines[i].split()
    if op == "rename":
        new = draw(st.from_regex(r"[a-z]{1,3}", fullmatch=True).filter(lambda n: n != name))
        lines[i] = f"{new} {rows} {cols}"
    else:
        del lines[i:i + 1 + int(rows)]
    return "\n".join(lines), 1


@st.composite
def mutated_lexicon(draw, text):
    """text with one or two entries mutated: a template character deleted or
    one of \\ . ( ) , x λ inserted, a binder renamed to another binder's name,
    two entries' templates swapped, a line truncated, or a weight appended;
    the 1-based numbers of the mutated lines; and 1 when that must exit 1 (a
    weight of nan, -0 or x), else None."""
    lines = text.split("\n")
    entries = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    op = draw(st.sampled_from(("delete", "insert", "binder", "swap", "truncate", "weight")))
    if op == "binder":
        entries = [i for i in entries if lines[i].count("\\") >= 2]
    i = draw(st.sampled_from(entries))
    fields = lines[i].split("\t")
    template = fields[2]
    mutated, expected = {i + 1}, None
    if op == "delete":
        k = draw(st.integers(0, len(template) - 1))
        fields[2] = template[:k] + template[k + 1:]
    elif op == "insert":
        k = draw(st.integers(0, len(template)))
        fields[2] = template[:k] + draw(st.sampled_from("\\.(),xλ")) + template[k:]
    elif op == "binder":
        names = re.findall(r"\\(\w+)\.", template)
        old, new = draw(st.permutations(names))[:2]
        fields[2] = template.replace(f"\\{old}.", f"\\{new}.")
    elif op == "swap":
        j = draw(st.sampled_from([j for j in entries if j != i]))
        other = lines[j].split("\t")
        fields[2], other[2] = other[2], template
        lines[j] = "\t".join(other)
        mutated.add(j + 1)
    elif op == "weight":
        weight = draw(st.sampled_from(("nan", "1e300", "-0", "x")))
        fields.append(weight)
        expected = None if weight == "1e300" else 1
    lines[i] = "\t".join(fields)
    if op == "truncate":
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 1))]
    return "\n".join(lines), mutated, expected


def loads(line: str) -> bool:
    try:
        ccg.Lexicon.from_string(line)
    except ccg.LexiconError:
        return False
    return True


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """(directory holding the episode's scene.json, episode, scene dict,
    identity weights text, eval config) that run and eval accept as they are."""
    where = tmp_path_factory.mktemp("inputs")
    ep = bm.generate_episode(bm.TaskSpec("packing_shapes"), 7)
    world.save_scene(where / "scene.json", ep.scene)
    n = len(world.features(ep.scene, (ep.scene.height, ep.scene.width))[1])
    eye = [" ".join("1" if i == j else "0" for j in range(n)) for i in range(n)]
    weights = "\n".join([f"cv {n} {n}", *eye, f"cl {n} {n}", *eye]) + "\n"
    config = {"tasks": [{"name": "packing_shapes", "split": "seen"}], "episodes": 1,
              "seed": 0, "rotations": 12, "backend": "oracle", "grounding": [16, 32],
              "lexicon": None, "weights": None}
    return where, ep, world.scene_to_dict(ep.scene), weights, config


def main_in_process(argv):
    """cli.main(argv) with empty stdin: (exit code, stderr)."""
    err = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO()), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, err.getvalue()


LEXICON_INSTRUCTIONS = ("pack the blue hexagon in the orange box",
                        "push the pile of red blocks into the green square",
                        "put the daxy block in the wug bowl")


@pytest.mark.parametrize("kind", ["scene", "weights", "config", "lexicon"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_input_file_exits_cleanly(input_files, kind, data):
    """A mutated scene (run), weights file (run, embedding backend), eval
    config (eval, one episode of one task) or lexicon (parse) ends in an exit
    code, never an exception or traceback; a renamed key, a bool or string in
    a numeric field, a truncated or dropped matrix, and a lexicon weight that
    is not a finite positive number exit 1. A mutated lexicon exits 1 exactly
    when a mutated line does not load on its own, and the error names it."""
    where, ep, scene, weights, config = input_files
    path = where / kind
    run = ["run", "--scene", str(path), ep.instruction]
    if kind == "lexicon":
        lexicon = (Path(ccg.__file__).parent / "data" / "lexicon.txt").read_text()
        text, mutated, expected = data.draw(mutated_lexicon(lexicon))
        path.write_text(text)
        lines = text.split("\n")
        if not all(loads(lines[n - 1]) for n in mutated):
            expected = 1
        run = ["parse", data.draw(st.sampled_from(LEXICON_INSTRUCTIONS)),
               "--lexicon", str(path)]
    elif kind == "scene":
        doc, expected = data.draw(mutated_json(scene))
        path.write_text(json.dumps(doc))
    elif kind == "config":
        doc, expected = data.draw(mutated_json(config))
        path.write_text(json.dumps(doc))
        run = ["eval", "--config", str(path)]
    else:
        text, expected = data.draw(mutated_weights(weights))
        path.write_text(text)
        run = ["run", "--scene", str(where / "scene.json"), "--backend", "embedding",
               "--weights", str(path), ep.instruction]
    if kind != "lexicon":
        run += ["--output-dir", str(where / "out")]
    code, err = main_in_process(run)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if expected == 1:
        assert code == 1 and "error:" in err, err
    if kind == "lexicon":
        assert (code == 1) == (expected == 1), err
        if code == 1:
            assert err.startswith(tuple(f"error: line {n}:" for n in mutated)), err
