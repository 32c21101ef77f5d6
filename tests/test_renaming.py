"""Renaming invariances: a module sees a concept only through its grounding,
so renaming what the grounding reads must not change a plan.

Two renamings are drawn. A colour swap exchanges two colours of one
default-lexicon word class in every object and in the instruction. An id
relabelling maps object ids by an order-reversing bijection, keeping the
scene's tuple order (its z-order), and maps the goal's ids with it. The
renamed episode must plan every goal as the episode does, byte for byte,
from a program whose text is the same once the words are renamed back.
"""

import dataclasses
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from tablang import benchmark, ccg, dsl, world
from tablang.backends import make_backend
from tablang.executor import ExecutionContext, PoseGrid, execute
from tablang.grounding import ExecutionError
from test_tools import load_tool

plan_hash = load_tool("plan_equiv").plan_hash
# The default lexicon's colour class, and colours it does not know.
COLOUR_CLASSES = (("blue", "brown", "gray", "green", "orange", "red", "yellow"),
                  ("cyan", "pink", "purple", "white"))


def swap_words(a: str, b: str):
    """The text with the words a and b exchanged; it is its own inverse."""
    return lambda text: re.sub(rf"\b({a}|{b})\b", lambda m: b if m[1] == a else a, text)


def swap_colours(episode: benchmark.Episode, a: str, b: str):
    swap = swap_words(a, b)
    objects = tuple(dataclasses.replace(o, color=swap(o.color),
                                        attributes=tuple(map(swap, o.attributes)))
                    for o in episode.scene.objects)
    scene = dataclasses.replace(episode.scene, objects=objects)
    return dataclasses.replace(episode, scene=scene, instruction=swap(episode.instruction)), swap


def relabel_ids(episode: benchmark.Episode):
    ids = sorted(o.id for o in episode.scene.objects)
    new = dict(zip(ids, reversed(ids)))
    objects = tuple(dataclasses.replace(o, id=new[o.id]) for o in episode.scene.objects)
    goal = episode.goal
    goal = dataclasses.replace(goal, target_ids=tuple(map(new.get, goal.target_ids)),
                               region_ids=tuple(map(new.get, goal.region_ids)))
    return dataclasses.replace(episode, scene=dataclasses.replace(episode.scene, objects=objects),
                               goal=goal), lambda text: text


def walk(episode: benchmark.Episode, backend, lexicon):
    """run_episode's loop goal by goal: the program text, each goal's plan
    hash (or its error's type), and the final score (None after an error)."""
    task = benchmark.TaskSpec(episode.task_name, episode.split)
    try:
        program = benchmark.read_instruction(episode.instruction, lexicon).program
    except ccg.NoParse:
        return None, [], None
    scene, plans = episode.scene, []
    grid = PoseGrid(scene.height, scene.width)
    for n in range(episode.max_steps + 1):
        score = benchmark.score_success(task, scene, episode)
        if score >= 1.0 or n == episode.max_steps:
            break
        for goal in dsl.goals(program):
            try:
                result = execute(goal, ExecutionContext(scene, backend, grid))
            except ExecutionError as exc:
                return dsl.serialize(program), plans + [type(exc).__name__], None
            plans.append(plan_hash(result))
            scene, _ = world.apply(scene, result.params, grid.rotations)
    return dsl.serialize(program), plans, score


@st.composite
def renamings(draw):
    """A colour swap of one class (half the draws) or an id relabelling."""
    if draw(st.booleans()):
        return relabel_ids, ()
    colours = draw(st.sampled_from(COLOUR_CLASSES))
    return swap_colours, tuple(draw(st.lists(st.sampled_from(colours), min_size=2, max_size=2,
                                             unique=True)))


@settings(max_examples=100, deadline=None)
@given(task=st.sampled_from(benchmark.TASK_NAMES), split=st.sampled_from(("seen", "unseen")),
       seed=st.integers(0, 19), backend=st.sampled_from(("oracle", "embedding")),
       renaming=renamings())
def test_renaming_what_grounding_reads_keeps_every_plan(task, split, seed, backend, renaming):
    """One lexicon parses both instructions, so a colour-swapped one reads
    the chart of its shape that the first one built, renamed."""
    rename, args = renaming
    episode = benchmark.generate_episode(benchmark.TaskSpec(task, split), seed)
    renamed, back = rename(episode, *args)
    lexicon = ccg.default_lexicon()
    program, plans, score = walk(episode, make_backend(backend), lexicon)
    renamed_program, renamed_plans, renamed_score = walk(renamed, make_backend(backend), lexicon)
    assert program is not None
    assert back(renamed_program) == program
    assert renamed_plans == plans
    assert renamed_score == score
