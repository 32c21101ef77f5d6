"""Typed manipulation-program language: AST, type checker, canonical text form.

Programs are trees over seven operations (scene, filter, relate, goal, do,
objunion, actionconcat) with six semantic types. Concept words (properties,
relations, action names) are carried as leaf tokens; the grounding layer
decides what they mean spatially.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class SemanticType(Enum):
    OBJECT = "Object"
    OBJ_PROP = "ObjProp"
    OBJ_REL = "ObjRel"
    GOAL = "Goal"
    PLAN = "Plan"
    ACTION = "Action"


PROPERTY = "property"
RELATION = "relation"
ACTION = "action"
_CONCEPT_KINDS = (PROPERTY, RELATION, ACTION)

_WORD_RE = re.compile(r"[a-z0-9_-]+\Z")


class TypeMismatch(Exception):
    """Raised when a child node violates its operation's signature slot."""

    def __init__(self, path: str, expected: str, found: str):
        self.path = path
        self.expected = expected
        self.found = found
        super().__init__(f"at {path}: expected {expected}, found {found}")


class ProgramSyntaxError(Exception):
    """Malformed canonical program text."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (position {position})")


@dataclass(frozen=True)
class ConceptToken:
    word: str
    kind: str

    def __post_init__(self):
        if not self.word or not _WORD_RE.match(self.word):
            raise ValueError(f"bad concept word: {self.word!r}")
        if self.kind not in _CONCEPT_KINDS:
            raise ValueError(f"bad concept kind: {self.kind!r}")


class ProgramNode:
    """Base class for AST nodes. All subclasses are frozen value types."""

    __slots__ = ()


@dataclass(frozen=True)
class Scene(ProgramNode):
    pass


@dataclass(frozen=True)
class Filter(ProgramNode):
    child: ProgramNode
    prop: ConceptToken


@dataclass(frozen=True)
class Relate(ProgramNode):
    target: ProgramNode
    reference: ProgramNode
    rel: ConceptToken


@dataclass(frozen=True)
class Goal(ProgramNode):
    obj: ProgramNode
    reference: ProgramNode
    rel: ConceptToken


@dataclass(frozen=True)
class Do(ProgramNode):
    goal: ProgramNode
    action: ConceptToken


@dataclass(frozen=True)
class ObjUnion(ProgramNode):
    a: ProgramNode
    b: ProgramNode


@dataclass(frozen=True)
class ActionConcat(ProgramNode):
    a: ProgramNode
    b: ProgramNode


def children(node: ProgramNode) -> tuple[ProgramNode, ...]:
    if isinstance(node, Scene):
        return ()
    if isinstance(node, Filter):
        return (node.child,)
    if isinstance(node, (Relate, Goal)):
        first = node.target if isinstance(node, Relate) else node.obj
        return (first, node.reference)
    if isinstance(node, Do):
        return (node.goal,)
    if isinstance(node, (ObjUnion, ActionConcat)):
        return (node.a, node.b)
    raise TypeError(f"not a ProgramNode: {node!r}")


def _check(node: ProgramNode, path: str) -> SemanticType:
    if isinstance(node, Scene):
        return SemanticType.OBJECT
    if isinstance(node, Filter):
        _expect(node.child, SemanticType.OBJECT, f"{path}.0")
        _expect_kind(node.prop, PROPERTY, f"{path}.1")
        return SemanticType.OBJECT
    if isinstance(node, Relate):
        _expect(node.target, SemanticType.OBJECT, f"{path}.0")
        _expect(node.reference, SemanticType.OBJECT, f"{path}.1")
        _expect_kind(node.rel, RELATION, f"{path}.2")
        return SemanticType.OBJECT
    if isinstance(node, Goal):
        _expect(node.obj, SemanticType.OBJECT, f"{path}.0")
        _expect(node.reference, SemanticType.OBJECT, f"{path}.1")
        _expect_kind(node.rel, RELATION, f"{path}.2")
        return SemanticType.GOAL
    if isinstance(node, Do):
        _expect(node.goal, SemanticType.GOAL, f"{path}.0")
        _expect_kind(node.action, ACTION, f"{path}.1")
        return SemanticType.PLAN
    if isinstance(node, ObjUnion):
        _expect(node.a, SemanticType.OBJECT, f"{path}.0")
        _expect(node.b, SemanticType.OBJECT, f"{path}.1")
        return SemanticType.OBJECT
    if isinstance(node, ActionConcat):
        _expect(node.a, SemanticType.PLAN, f"{path}.0")
        _expect(node.b, SemanticType.PLAN, f"{path}.1")
        return SemanticType.PLAN
    raise TypeMismatch(path, "ProgramNode", type(node).__name__)


def _expect(node: ProgramNode, want: SemanticType, path: str) -> None:
    got = _check(node, path)
    if got is not want:
        raise TypeMismatch(path, want.value, got.value)


_KIND_TYPE = {
    PROPERTY: SemanticType.OBJ_PROP,
    RELATION: SemanticType.OBJ_REL,
    ACTION: SemanticType.ACTION,
}


def _expect_kind(tok: ConceptToken, kind: str, path: str) -> None:
    if tok.kind != kind:
        raise TypeMismatch(path, _KIND_TYPE[kind].value, _KIND_TYPE[tok.kind].value)


def type_check(node: ProgramNode) -> SemanticType:
    """Return the node's semantic type, or raise TypeMismatch."""
    return _check(node, "0")


def serialize(node: ProgramNode) -> str:
    """Canonical text form. Scene() is elided inside the innermost filter,
    so Filter(Scene(), hexagon) prints as "filter(hexagon)".
    """
    if isinstance(node, Scene):
        return "scene()"
    if isinstance(node, Filter):
        if isinstance(node.child, Scene):
            return f"filter({node.prop.word})"
        return f"filter({serialize(node.child)}, {node.prop.word})"
    if isinstance(node, Relate):
        return f"relate({serialize(node.target)}, {serialize(node.reference)}, {node.rel.word})"
    if isinstance(node, Goal):
        return f"goal({serialize(node.obj)}, {serialize(node.reference)}, {node.rel.word})"
    if isinstance(node, Do):
        return f"do({serialize(node.goal)}, {node.action.word})"
    if isinstance(node, ObjUnion):
        return f"objunion({serialize(node.a)}, {serialize(node.b)})"
    if isinstance(node, ActionConcat):
        return f"actionconcat({serialize(node.a)}, {serialize(node.b)})"
    raise TypeError(f"not a ProgramNode: {node!r}")


_OPS = ("scene", "filter", "relate", "goal", "do", "objunion", "actionconcat")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ProgramSyntaxError:
        return ProgramSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def word(self) -> str:
        self.skip_ws()
        m = re.match(r"[a-z0-9_-]+", self.text[self.pos:])
        if not m:
            raise self.error("expected a name")
        self.pos += len(m.group(0))
        return m.group(0)

    def node(self) -> ProgramNode:
        name = self.word()
        if name not in _OPS:
            raise self.error(f"unknown operation {name!r}")
        self.expect("(")
        args: list[tuple[bool, object]] = []  # (is_node, value)
        self.skip_ws()
        if self.peek() != ")":
            while True:
                args.append(self.argument())
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    continue
                break
        self.expect(")")
        return self.build(name, args)

    def argument(self) -> tuple[bool, object]:
        self.skip_ws()
        start = self.pos
        name = self.word()
        self.skip_ws()
        if self.peek() == "(" and name in _OPS:
            self.pos = start
            return True, self.node()
        if self.peek() == "(":
            raise self.error(f"unknown operation {name!r}")
        return False, name

    def build(self, name: str, args: list[tuple[bool, object]]) -> ProgramNode:
        def node_arg(i: int) -> ProgramNode:
            is_node, value = args[i]
            if not is_node:
                raise self.error(f"{name}: argument {i} must be a subprogram")
            return value  # type: ignore[return-value]

        def word_arg(i: int, kind: str) -> ConceptToken:
            is_node, value = args[i]
            if is_node:
                raise self.error(f"{name}: argument {i} must be a word")
            return ConceptToken(value, kind)  # type: ignore[arg-type]

        if name == "scene":
            if args:
                raise self.error("scene takes no arguments")
            return Scene()
        if name == "filter":
            if len(args) == 1:
                return Filter(Scene(), word_arg(0, PROPERTY))
            if len(args) == 2:
                return Filter(node_arg(0), word_arg(1, PROPERTY))
            raise self.error("filter takes 1 or 2 arguments")
        if name == "relate":
            if len(args) != 3:
                raise self.error("relate takes 3 arguments")
            return Relate(node_arg(0), node_arg(1), word_arg(2, RELATION))
        if name == "goal":
            if len(args) != 3:
                raise self.error("goal takes 3 arguments")
            return Goal(node_arg(0), node_arg(1), word_arg(2, RELATION))
        if name == "do":
            if len(args) != 2:
                raise self.error("do takes a goal and an action")
            return Do(node_arg(0), word_arg(1, ACTION))
        if name == "objunion":
            if len(args) != 2:
                raise self.error("objunion takes 2 arguments")
            return ObjUnion(node_arg(0), node_arg(1))
        if name == "actionconcat":
            if len(args) != 2:
                raise self.error("actionconcat takes 2 arguments")
            return ActionConcat(node_arg(0), node_arg(1))
        raise self.error(f"unknown operation {name!r}")


def parse_program(text: str) -> ProgramNode:
    """Parse canonical program text. Inverse of serialize on valid trees."""
    p = _Parser(text)
    node = p.node()
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input")
    type_check(node)
    return node
