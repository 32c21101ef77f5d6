"""Typed manipulation-program language: AST, type checker, text form.

Programs are trees over seven operations (scene, filter, relate, goal, do,
objunion, actionconcat) with six semantic types. SIGNATURES is the one table
of the operations: it drives the reader, the type checker and the printer.
Concept words (properties, relations, action names) are carried as leaf
tokens; the grounding layer decides what they mean spatially.

The same trees, extended with binders (Lam), bound variables (Var, as de
Bruijn indices), applications of bound variables (App) and open word
positions (Slot), are the semantic templates of the CCG lexicon:
read("\\x.filter(x, red)") is a template, and type_check types its body
given the types of its variables. Binder names exist only in program text.
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

_WORD_RE = re.compile(r"[a-z0-9_-]+")
# Deepest nesting of operations and binders read accepts: it recurses once per level.
MAX_TERM_DEPTH = 64


class TypeMismatch(Exception):
    """Raised when a child node violates its operation's signature slot."""

    def __init__(self, path: str, expected: str, found: str):
        self.path = path
        self.expected = expected
        self.found = found
        super().__init__(f"at {path}: expected {expected}, found {found}")


class ProgramSyntaxError(Exception):
    """Malformed program text."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (position {position})")


@dataclass(frozen=True)
class ConceptToken:
    word: str
    kind: str

    def __post_init__(self):
        if not self.word or not _WORD_RE.fullmatch(self.word):
            raise ValueError(f"bad concept word: {self.word!r}")
        if self.kind not in _CONCEPT_KINDS:
            raise ValueError(f"bad concept kind: {self.kind!r}")


@dataclass(frozen=True)
class Slot:
    """Open word position of the given kind in an abstracted template."""

    kind: str


class ProgramNode:
    """Base class for AST nodes. All subclasses are frozen value types whose
    fields, in order, are the operation's arguments."""

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


@dataclass(frozen=True)
class Var(ProgramNode):
    index: int  # binders between the variable and its own: 0 is the innermost Lam


@dataclass(frozen=True)
class Lam(ProgramNode):
    body: ProgramNode


@dataclass(frozen=True)
class App(ProgramNode):
    fn: ProgramNode
    arg: ProgramNode


_O, _G, _P = SemanticType.OBJECT, SemanticType.GOAL, SemanticType.PLAN

# op -> (node class, argument types, result type). A str argument type is a
# concept-word kind; any other is the semantic type of a subprogram.
SIGNATURES = {
    "scene": (Scene, (), _O),
    "filter": (Filter, (_O, PROPERTY), _O),
    "relate": (Relate, (_O, _O, RELATION), _O),
    "goal": (Goal, (_O, _O, RELATION), _G),
    "do": (Do, (_G, ACTION), _P),
    "objunion": (ObjUnion, (_O, _O), _O),
    "actionconcat": (ActionConcat, (_P, _P), _P),
}
_BY_CLASS = {cls: (op, args, result) for op, (cls, args, result) in SIGNATURES.items()}

_KIND_TYPE = {PROPERTY: SemanticType.OBJ_PROP, RELATION: SemanticType.OBJ_REL,
              ACTION: SemanticType.ACTION}


# A type is a SemanticType, or a function type (argument, result) for a
# template's bound variable.


def _type_name(t) -> str:
    if isinstance(t, tuple):
        return f"({_type_name(t[0])} -> {_type_name(t[1])})"
    return t.value


def _check(node, env: tuple, path: str):
    if isinstance(node, Var):
        if not 0 <= node.index < len(env):
            raise TypeMismatch(path, "a bound variable", f"free variable {node.index}")
        return env[-1 - node.index]
    if isinstance(node, App):
        fn = _check(node.fn, env, f"{path}.0")
        if not isinstance(fn, tuple):
            raise TypeMismatch(path, "a function", _type_name(fn))
        _expect(node.arg, fn[0], env, f"{path}.1")
        return fn[1]
    signature = _BY_CLASS.get(type(node))
    if signature is None:
        raise TypeMismatch(path, "an operation", type(node).__name__)
    for i, (value, want) in enumerate(zip(vars(node).values(), signature[1])):
        if isinstance(want, str):
            _expect_kind(value, want, f"{path}.{i}")
        else:
            _expect(value, want, env, f"{path}.{i}")
    return signature[2]


def _expect(node, want, env: tuple, path: str) -> None:
    got = _check(node, env, path)
    if got != want:
        raise TypeMismatch(path, _type_name(want), _type_name(got))


def _expect_kind(tok, kind: str, path: str) -> None:
    if not isinstance(tok, ConceptToken):
        raise TypeMismatch(path, _KIND_TYPE[kind].value, type(tok).__name__)
    if tok.kind != kind:
        raise TypeMismatch(path, _KIND_TYPE[kind].value, _KIND_TYPE[tok.kind].value)


def type_check(node: ProgramNode, env: tuple = ()) -> SemanticType | tuple:
    """Return the node's semantic type, or raise TypeMismatch. env holds the
    types of the binders around node, outermost first; a variable outside
    them, or a binder anywhere in the tree, is a mismatch."""
    return _check(node, env, "0")


def goals(program: ProgramNode) -> list[ProgramNode]:
    """The do leaves of an actionconcat tree, left to right; any other
    program is a goal by itself."""
    if isinstance(program, ActionConcat):
        return goals(program.a) + goals(program.b)
    return [program]


_BINDER_NAMES = "xyzwuvab"


def serialize(node: ProgramNode) -> str:
    """Text form, the inverse of read on normal trees. Scene() is elided
    inside the innermost filter, so Filter(Scene(), hexagon) prints as
    "filter(hexagon)". Binders are named by depth (x, y, z, ..., x8, ...),
    free variables x-1, x-2, ..., and an open word position prints as <word>,
    which read rejects. A redex prints its Lam head in parentheses, as
    (\\x.filter(x, red))(scene()), which read rejects too."""
    return _text(node, 0)


def _binder_name(depth: int) -> str:
    return _BINDER_NAMES[depth] if 0 <= depth < len(_BINDER_NAMES) else f"x{depth}"


def _text(node, depth: int) -> str:
    signature = _BY_CLASS.get(type(node))
    if signature is not None:
        if isinstance(node, Filter) and isinstance(node.child, Scene):
            return f"filter({_text(node.prop, depth)})"
        inner = ", ".join([_text(value, depth) for value in vars(node).values()])
        return f"{signature[0]}({inner})"
    if isinstance(node, ConceptToken):
        return node.word
    if isinstance(node, Slot):
        return "<word>"
    if isinstance(node, Var):
        return _binder_name(depth - 1 - node.index)
    if isinstance(node, Lam):
        return f"\\{_binder_name(depth)}.{_text(node.body, depth + 1)}"
    if isinstance(node, App):
        args = []
        while isinstance(node, App):
            args.append(_text(node.arg, depth))
            node = node.fn
        head = _text(node, depth)
        if isinstance(node, Lam):
            head = f"({head})"
        return f"{head}({', '.join(reversed(args))})"
    raise TypeError(f"not a ProgramNode: {node!r}")


class _Reader:
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

    def name(self) -> str:
        self.skip_ws()
        m = _WORD_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected a name")
        self.pos = m.end()
        return m.group(0)

    def term(self, bound: tuple[str, ...], depth: int) -> ProgramNode | str:
        """A subprogram, or a concept word as a str, nested depth levels deep.
        bound names the enclosing binders innermost first: a Var's index."""
        if depth > MAX_TERM_DEPTH:
            raise self.error(f"nests deeper than {MAX_TERM_DEPTH} operations and binders")
        self.skip_ws()
        if self.peek() in ("\\", "λ"):
            self.pos += 1
            param = self.name()
            self.expect(".")
            return Lam(self.subprogram((param,) + bound, depth + 1))
        name = self.name()
        self.skip_ws()
        if self.peek() != "(":
            return Var(bound.index(name)) if name in bound else name
        self.pos += 1
        args: list[ProgramNode | str] = []
        self.skip_ws()
        if self.peek() != ")":
            while True:
                args.append(self.term(bound, depth + 1))
                self.skip_ws()
                if self.peek() != ",":
                    break
                self.pos += 1
        self.expect(")")
        if name in bound:
            node: ProgramNode = Var(bound.index(name))
            for i, arg in enumerate(args):
                node = App(node, self.argument(name, i, arg, None))
            return node
        if name not in SIGNATURES:
            raise self.error(f"unknown operation {name!r}")
        cls, types, _ = SIGNATURES[name]
        if cls is Filter and len(args) == 1:
            args.insert(0, Scene())
        if len(args) != len(types):
            raise self.error(f"{name} takes {len(types)} arguments")
        return cls(*[self.argument(name, i, arg, want)
                     for i, (arg, want) in enumerate(zip(args, types))])

    def argument(self, name: str, i: int, value: ProgramNode | str, want):
        if isinstance(want, str):
            if not isinstance(value, str):
                raise self.error(f"{name}: argument {i} must be a word")
            return ConceptToken(value, want)
        if isinstance(value, str):
            raise self.error(f"{name}: argument {i} must be a subprogram")
        return value

    def subprogram(self, bound: tuple[str, ...], depth: int) -> ProgramNode:
        node = self.term(bound, depth)
        if isinstance(node, str):
            raise self.error(f"expected a subprogram, found {node!r}")
        return node


def read(text: str) -> ProgramNode:
    """Parse program text into a tree, untyped. Besides the operations it
    accepts binders (\\x. or λx.), bound variables (read as indices) and their
    applications p(o), the syntax of lexicon templates. Text nested deeper
    than MAX_TERM_DEPTH is a ProgramSyntaxError."""
    reader = _Reader(text)
    node = reader.subprogram((), 0)
    reader.skip_ws()
    if reader.pos != len(text):
        raise reader.error("trailing input")
    return node

