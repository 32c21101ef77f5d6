import numpy as np
import pytest

from tablang import dsl
from tablang.dsl import (
    ActionConcat,
    App,
    ConceptToken,
    Do,
    Filter,
    Goal,
    Lam,
    ObjUnion,
    ProgramSyntaxError,
    Relate,
    Scene,
    SemanticType,
    TypeMismatch,
    Var,
    read,
    serialize,
    type_check,
)


def prop(w):
    return ConceptToken(w, dsl.PROPERTY)


def read_checked(text):
    """The tree read from text, after type_check accepts it."""
    tree = read(text)
    type_check(tree)
    return tree


def rel(w):
    return ConceptToken(w, dsl.RELATION)


def act(w):
    return ConceptToken(w, dsl.ACTION)


def example_tree():
    hexagon = Filter(Filter(Scene(), prop("hexagon")), prop("blue"))
    box = Filter(Filter(Scene(), prop("box")), prop("orange"))
    return Do(Goal(hexagon, box, rel("in")), act("pack"))


EXAMPLE_TEXT = "do(goal(filter(filter(hexagon), blue), filter(filter(box), orange), in), pack)"


def test_scene_is_object():
    assert type_check(Scene()) is SemanticType.OBJECT


def test_example_tree_is_plan():
    assert type_check(example_tree()) is SemanticType.PLAN


def test_do_with_filter_child_fails():
    bad = Do(Filter(Scene(), prop("blue")), act("pack"))
    with pytest.raises(TypeMismatch) as err:
        type_check(bad)
    assert err.value.expected == "Goal"
    assert err.value.found == "Object"


def test_concept_kind_mismatch_fails():
    bad = Filter(Scene(), rel("in"))
    with pytest.raises(TypeMismatch):
        type_check(bad)


def test_relate_types():
    r = Relate(Filter(Scene(), prop("box")), Filter(Scene(), prop("star")), rel("left"))
    assert type_check(r) is SemanticType.OBJECT


def test_actionconcat_types():
    plan = example_tree()
    assert type_check(ActionConcat(plan, plan)) is SemanticType.PLAN
    with pytest.raises(TypeMismatch):
        type_check(ActionConcat(Scene(), plan))


def test_goals_are_the_do_leaves_left_to_right():
    a, b, c = (Do(Goal(Filter(Scene(), prop(w)), Filter(Scene(), prop("box")), rel("in")),
                  act("pack")) for w in ("star", "ring", "disc"))
    assert dsl.goals(a) == [a]
    assert dsl.goals(ActionConcat(ActionConcat(a, b), c)) == [a, b, c]
    assert dsl.goals(ActionConcat(a, ActionConcat(b, c))) == [a, b, c]


def test_serialize_scene():
    assert serialize(Scene()) == "scene()"


def test_serialize_example():
    assert serialize(example_tree()) == EXAMPLE_TEXT


def test_serialize_objunion_elides_scene():
    tree = ObjUnion(Filter(Scene(), prop("red")), Filter(Scene(), prop("blue")))
    text = serialize(tree)
    assert text == "objunion(filter(red), filter(blue))"
    assert read_checked(text) == tree


def test_parse_scene():
    assert read_checked("scene()") == Scene()


def test_parse_example():
    assert read_checked(EXAMPLE_TEXT) == example_tree()


def test_parse_missing_goals():
    with pytest.raises(ProgramSyntaxError):
        read_checked("do(pack)")


def test_parse_do_with_two_goals():
    goal = "goal(filter(red), filter(box), in)"
    with pytest.raises(ProgramSyntaxError):
        read_checked(f"do({goal}, {goal}, pack)")


def test_parse_trailing_garbage():
    with pytest.raises(ProgramSyntaxError):
        read_checked("scene() junk")


def test_parse_unknown_operation():
    with pytest.raises(ProgramSyntaxError):
        read_checked("frobnicate(x)")


def test_parse_type_error():
    with pytest.raises(TypeMismatch):
        read_checked("do(filter(blue), pack)")


WORDS = ["red", "blue", "hexagon", "box", "star", "zone-3", "letter-l"]
RELS = ["in", "left", "on"]
ACTS = ["pack", "push", "put"]


def random_object(rng, depth):
    if depth <= 0:
        return Filter(Scene(), prop(WORDS[rng.integers(len(WORDS))]))
    k = rng.integers(4)
    if k == 0:
        return Scene()
    if k == 1:
        return Filter(random_object(rng, depth - 1), prop(WORDS[rng.integers(len(WORDS))]))
    if k == 2:
        return ObjUnion(random_object(rng, depth - 1), random_object(rng, depth - 1))
    return Relate(random_object(rng, depth - 1), random_object(rng, depth - 1),
                  rel(RELS[rng.integers(len(RELS))]))


def random_plan(rng, depth):
    if depth > 0 and rng.integers(4) == 0:
        return ActionConcat(random_plan(rng, depth - 1), random_plan(rng, depth - 1))
    goal = Goal(random_object(rng, depth - 1), random_object(rng, depth - 1),
                rel(RELS[rng.integers(len(RELS))]))
    return Do(goal, act(ACTS[rng.integers(len(ACTS))]))


def test_round_trip_property():
    rng = np.random.default_rng(42)
    for _ in range(300):
        tree = random_plan(rng, 3)
        assert type_check(tree) is SemanticType.PLAN
        assert read_checked(serialize(tree)) == tree


def test_round_trip_object_trees():
    rng = np.random.default_rng(7)
    for _ in range(200):
        tree = random_object(rng, 3)
        assert read_checked(serialize(tree)) == tree


def test_operation_coverage():
    # one AST variant per operation, typed per the signature table
    goal = Goal(Scene(), Scene(), rel("in"))
    plan = Do(goal, act("pack"))
    cases = [
        (Scene(), SemanticType.OBJECT),
        (Filter(Scene(), prop("red")), SemanticType.OBJECT),
        (Relate(Scene(), Scene(), rel("left")), SemanticType.OBJECT),
        (goal, SemanticType.GOAL),
        (plan, SemanticType.PLAN),
        (ObjUnion(Scene(), Scene()), SemanticType.OBJECT),
        (ActionConcat(plan, plan), SemanticType.PLAN),
    ]
    assert len({type(node).__name__ for node, _ in cases}) == 7
    for node, expected in cases:
        assert type_check(node) is expected


def test_concept_token_validation():
    with pytest.raises(ValueError):
        ConceptToken("", dsl.PROPERTY)
    with pytest.raises(ValueError):
        ConceptToken("two words", dsl.PROPERTY)
    with pytest.raises(ValueError):
        ConceptToken("red", "adjective")


def test_read_template_binders():
    template = dsl.read(r"\o.\p.do(p(o), pack)")
    assert template == Lam(Lam(Do(App(Var(0), Var(1)), act("pack"))))
    assert dsl.read("λo.λp.do(p(o), pack)") == template
    assert serialize(template) == "\\x.\\y.do(y(x), pack)"
    two_args = serialize(dsl.read(r"\f.\a.\b.f(a, b)"))
    assert two_args == "\\x.\\y.\\z.x(y, z)"
    assert serialize(dsl.read(two_args)) == two_args


@pytest.mark.parametrize("open_, close", [("\\x.", ""), ("filter(", ", red)")],
                         ids=["binders", "operations"])
def test_read_bounds_nesting_depth(open_, close):
    """Text nested MAX_TERM_DEPTH deep reads; one level more is a syntax
    error, not a RecursionError."""
    leaf = "x" if close == "" else "scene()"
    dsl.read(open_ * dsl.MAX_TERM_DEPTH + leaf + close * dsl.MAX_TERM_DEPTH)
    deeper = dsl.MAX_TERM_DEPTH + 1
    with pytest.raises(ProgramSyntaxError, match="nests deeper"):
        dsl.read(open_ * deeper + leaf + close * deeper)


def test_type_check_template_body_with_env():
    body = Do(App(Var(0), Var(1)), act("pack"))
    env = (SemanticType.OBJECT, (SemanticType.OBJECT, SemanticType.GOAL))
    assert type_check(body, env) is SemanticType.PLAN
    with pytest.raises(TypeMismatch):
        type_check(body)
    with pytest.raises(TypeMismatch):
        type_check(body, (SemanticType.GOAL, env[1]))


def test_parse_program_rejects_binders():
    with pytest.raises(TypeMismatch):
        read_checked(r"\x.filter(x, red)")
    with pytest.raises(ProgramSyntaxError):
        read_checked("filter(x, red)")


def test_open_word_slot_prints_but_does_not_read():
    template = Lam(Filter(Var(0), dsl.Slot(dsl.PROPERTY)))
    assert serialize(template) == "\\x.filter(x, <word>)"
    with pytest.raises(ProgramSyntaxError):
        dsl.read("filter(<word>)")
    with pytest.raises(TypeMismatch):
        type_check(Filter(Scene(), dsl.Slot(dsl.PROPERTY)))


def test_redex_prints_its_head_in_parentheses():
    """A Lam applied to an argument prints in parentheses, so the text does
    not read as an application inside the Lam's body. Only non-normal trees
    have such a head, and read does not accept it."""
    inner = Lam(Lam(Relate(Var(0), Var(1), rel("left"))))
    assert serialize(Lam(App(inner, Var(0)))) == "\\x.(\\y.\\z.relate(z, y, left))(x)"
    redex = App(Lam(Filter(Var(0), prop("red"))), Scene())
    assert serialize(redex) == "(\\x.filter(x, red))(scene())"
    with pytest.raises(ProgramSyntaxError):
        dsl.read(serialize(redex))
