"""CCG semantic parser: lexicon, combinators, chart, and novel-word handling.

Each lexicon entry pairs a word with a syntactic category and a lambda term
over program constructors. Parsing is CKY over two universal combinators
(forward and backward application); coordination is carried by ordinary
entries for "and". A word outside the vocabulary is handled by guessing its
category: every category occurring in the lexicon is tried, the sentence must
still parse completely, and the word's semantics is drawn from the empirical
prior p(semantics | syntax) with the word slot filled by the literal token.
All candidate leaves of all unknown words go into one chart; chart keys carry
each item's novel-word assignments, so derivations under different guesses
never merge, and a root is kept only if it gives each unknown word a single
assignment and that joint assignment is one of the kept combinations.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

from . import dsl

PRIMITIVES = ("N", "NP", "S", "PP")
FORWARD = "/"
BACKWARD = "\\"


class LexiconError(Exception):
    pass


class NoParse(Exception):
    def __init__(self, tokens):
        self.tokens = tuple(tokens)
        super().__init__(f"no derivation for: {' '.join(self.tokens)}")


# --------------------------------------------------------------------------
# Syntactic categories


@dataclass(frozen=True)
class Category:
    pass


@dataclass(frozen=True)
class Prim(Category):
    name: str


@dataclass(frozen=True)
class Complex(Category):
    result: Category
    direction: str  # FORWARD or BACKWARD
    argument: Category


N = Prim("N")
NP = Prim("NP")
S = Prim("S")
PP = Prim("PP")


def category_to_str(cat: Category) -> str:
    if isinstance(cat, Prim):
        return cat.name
    left = category_to_str(cat.result)
    right = category_to_str(cat.argument)
    if isinstance(cat.result, Complex):
        left = f"({left})"
    if isinstance(cat.argument, Complex):
        right = f"({right})"
    return f"{left}{cat.direction}{right}"


def parse_category(text: str) -> Category:
    tokens = re.findall(r"[A-Z]+|[/\\()]", text.replace(" ", ""))
    if "".join(tokens) != text.replace(" ", ""):
        raise LexiconError(f"bad category syntax: {text!r}")
    pos = 0

    def atom() -> Category:
        nonlocal pos
        if pos >= len(tokens):
            raise LexiconError(f"bad category: {text!r}")
        tok = tokens[pos]
        if tok == "(":
            pos += 1
            inner = expr()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise LexiconError(f"unbalanced parens in category: {text!r}")
            pos += 1
            return inner
        if tok in PRIMITIVES:
            pos += 1
            return Prim(tok)
        raise LexiconError(f"unknown primitive {tok!r} in {text!r}")

    def expr() -> Category:
        nonlocal pos
        left = atom()
        while pos < len(tokens) and tokens[pos] in (FORWARD, BACKWARD):
            op = tokens[pos]
            pos += 1
            right = atom()
            left = Complex(left, op, right)
        return left

    cat = expr()
    if pos != len(tokens):
        raise LexiconError(f"trailing category input: {text!r}")
    return cat


# --------------------------------------------------------------------------
# Semantic terms (lambda calculus over program constructors)


@dataclass(frozen=True)
class Sem:
    pass


@dataclass(frozen=True)
class Var(Sem):
    name: str


@dataclass(frozen=True)
class Lam(Sem):
    param: str
    body: Sem


@dataclass(frozen=True)
class App(Sem):
    fn: Sem
    arg: Sem


@dataclass(frozen=True)
class OpNode(Sem):
    op: str
    args: tuple[Sem, ...]


@dataclass(frozen=True)
class Word(Sem):
    text: str


@dataclass(frozen=True)
class Slot(Sem):
    """Abstracted word position in a template (filled at instantiation)."""


def free_vars(term: Sem) -> set[str]:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Lam):
        return free_vars(term.body) - {term.param}
    if isinstance(term, App):
        return free_vars(term.fn) | free_vars(term.arg)
    if isinstance(term, OpNode):
        out: set[str] = set()
        for a in term.args:
            out |= free_vars(a)
        return out
    return set()


def _subst(term: Sem, name: str, value: Sem) -> Sem:
    if isinstance(term, Var):
        return value if term.name == name else term
    if isinstance(term, Lam):
        if term.param == name:
            return term
        if term.param in free_vars(value):
            fresh = term.param
            taken = free_vars(value) | free_vars(term.body)
            while fresh in taken:
                fresh += "'"
            body = _subst(term.body, term.param, Var(fresh))
            return Lam(fresh, _subst(body, name, value))
        return Lam(term.param, _subst(term.body, name, value))
    if isinstance(term, App):
        return App(_subst(term.fn, name, value), _subst(term.arg, name, value))
    if isinstance(term, OpNode):
        return OpNode(term.op, tuple(_subst(a, name, value) for a in term.args))
    return term


def beta_normalize(term: Sem) -> Sem:
    if isinstance(term, App):
        fn = beta_normalize(term.fn)
        arg = beta_normalize(term.arg)
        if isinstance(fn, Lam):
            return beta_normalize(_subst(fn.body, fn.param, arg))
        return App(fn, arg)
    if isinstance(term, Lam):
        return Lam(term.param, beta_normalize(term.body))
    if isinstance(term, OpNode):
        return OpNode(term.op, tuple(beta_normalize(a) for a in term.args))
    return term


def alpha_normalize(term: Sem) -> Sem:
    """Rename binders to v0, v1, ... in traversal order so that structural
    equality coincides with alpha equivalence."""
    counter = itertools.count()

    def walk(t: Sem, env: dict[str, str]) -> Sem:
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        if isinstance(t, Lam):
            fresh = f"v{next(counter)}"
            return Lam(fresh, walk(t.body, {**env, t.param: fresh}))
        if isinstance(t, App):
            return App(walk(t.fn, env), walk(t.arg, env))
        if isinstance(t, OpNode):
            return OpNode(t.op, tuple(walk(a, env) for a in t.args))
        return t

    return walk(term, {})


def canonical(term: Sem) -> Sem:
    return alpha_normalize(beta_normalize(term))


def apply_sem(fn: Sem, arg: Sem) -> Sem | None:
    if not isinstance(fn, Lam):
        return None
    return canonical(App(fn, arg))


_PRETTY_NAMES = "xyzwuvab"


def template_to_str(term: Sem, _env: dict[str, str] | None = None, _depth: int = 0) -> str:
    env = _env or {}
    if isinstance(term, Lam):
        name = _PRETTY_NAMES[_depth] if _depth < len(_PRETTY_NAMES) else f"x{_depth}"
        return f"\\{name}.{template_to_str(term.body, {**env, term.param: name}, _depth + 1)}"
    if isinstance(term, Var):
        return env.get(term.name, term.name)
    if isinstance(term, App):
        fn = template_to_str(term.fn, env, _depth)
        return f"{fn}({template_to_str(term.arg, env, _depth)})"
    if isinstance(term, OpNode):
        if term.op == "filter" and len(term.args) == 2 and term.args[0] == OpNode("scene", ()):
            return f"filter({template_to_str(term.args[1], env, _depth)})"
        args = ", ".join(template_to_str(a, env, _depth) for a in term.args)
        return f"{term.op}({args})"
    if isinstance(term, Word):
        return term.text
    if isinstance(term, Slot):
        return "<word>"
    raise TypeError(f"not a semantic term: {term!r}")


# --------------------------------------------------------------------------
# Template text parsing


_OP_ARITY = {
    "scene": (0, 0),
    "filter": (1, 2),
    "relate": (3, 3),
    "goal": (3, 3),
    "do": (2, 2),
    "objunion": (2, 2),
    "actionconcat": (2, 2),
}


class _TemplateParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str) -> LexiconError:
        return LexiconError(f"{msg} in template {self.text!r} at {self.pos}")

    def skip(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def name(self) -> str:
        self.skip()
        m = re.match(r"[a-z0-9_<>-]+", self.text[self.pos:])
        if not m:
            raise self.error("expected a name")
        self.pos += len(m.group(0))
        return m.group(0)

    def term(self, bound: frozenset[str]) -> Sem:
        self.skip()
        if self.peek() in ("\\", "λ"):
            self.pos += 1
            param = self.name()
            self.skip()
            if self.peek() != ".":
                raise self.error("expected '.' after binder")
            self.pos += 1
            return Lam(param, self.term(bound | {param}))
        return self.atom(bound)

    def atom(self, bound: frozenset[str]) -> Sem:
        name = self.name()
        self.skip()
        if self.peek() != "(":
            if name == "<word>":
                return Slot()
            return Var(name) if name in bound else Word(name)
        self.pos += 1
        args: list[Sem] = []
        self.skip()
        if self.peek() != ")":
            while True:
                args.append(self.term(bound))
                self.skip()
                if self.peek() == ",":
                    self.pos += 1
                    continue
                break
        self.skip()
        if self.peek() != ")":
            raise self.error("expected ')'")
        self.pos += 1
        if name in bound:
            out: Sem = Var(name)
            for a in args:
                out = App(out, a)
            return out
        if name in _OP_ARITY:
            lo, hi = _OP_ARITY[name]
            if not lo <= len(args) <= hi:
                raise self.error(f"{name} arity")
            if name == "filter" and len(args) == 1:
                args = [OpNode("scene", ()), args[0]]
            return OpNode(name, tuple(args))
        raise self.error(f"unknown operation {name!r}")


def parse_template(text: str) -> Sem:
    p = _TemplateParser(text)
    term = p.term(frozenset())
    p.skip()
    if p.pos != len(text):
        raise p.error("trailing input")
    return canonical(term)


# --------------------------------------------------------------------------
# Category -> semantic-type homomorphism and template checking

OBJ_T = "Object"
GOAL_T = "Goal"
PLAN_T = "Plan"


def category_sem_type(cat: Category):
    if isinstance(cat, Prim):
        if cat.name in ("N", "NP"):
            return OBJ_T
        if cat.name == "S":
            return PLAN_T
        if cat.name == "PP":
            return ("fun", OBJ_T, GOAL_T)
        raise LexiconError(f"no semantic type for {cat.name}")
    return ("fun", category_sem_type(cat.argument), category_sem_type(cat.result))


def _infer(term: Sem, env: dict[str, object]):
    if isinstance(term, Var):
        if term.name not in env:
            raise LexiconError(f"unbound variable {term.name}")
        return env[term.name]
    if isinstance(term, App):
        fn_t = _infer(term.fn, env)
        if not (isinstance(fn_t, tuple) and fn_t[0] == "fun"):
            raise LexiconError("application of a non-function")
        if _infer(term.arg, env) != fn_t[1]:
            raise LexiconError("argument type mismatch")
        return fn_t[2]
    if isinstance(term, OpNode):
        def want(arg: Sem, t) -> None:
            if _infer(arg, env) != t:
                raise LexiconError(f"{term.op}: bad argument type")

        def word_slot(arg: Sem) -> None:
            if not isinstance(arg, (Word, Slot)):
                raise LexiconError(f"{term.op}: concept slot must be a word")

        if term.op == "scene":
            return OBJ_T
        if term.op == "filter":
            want(term.args[0], OBJ_T)
            word_slot(term.args[1])
            return OBJ_T
        if term.op in ("relate", "goal"):
            want(term.args[0], OBJ_T)
            want(term.args[1], OBJ_T)
            word_slot(term.args[2])
            return OBJ_T if term.op == "relate" else GOAL_T
        if term.op == "do":
            want(term.args[0], GOAL_T)
            word_slot(term.args[1])
            return PLAN_T
        if term.op == "objunion":
            want(term.args[0], OBJ_T)
            want(term.args[1], OBJ_T)
            return OBJ_T
        if term.op == "actionconcat":
            want(term.args[0], PLAN_T)
            want(term.args[1], PLAN_T)
            return PLAN_T
        raise LexiconError(f"unknown operation {term.op}")
    raise LexiconError(f"cannot type {type(term).__name__} here")


def check_template(term: Sem, cat: Category) -> None:
    """Verify the template's type matches the category image under the
    standard homomorphism (N -> Object, PP -> Object -> Goal, S -> Plan)."""
    expected = category_sem_type(cat)
    env: dict[str, object] = {}
    body = term
    while isinstance(body, Lam):
        if not (isinstance(expected, tuple) and expected[0] == "fun"):
            raise LexiconError("template has more binders than the category")
        env[body.param] = expected[1]
        expected = expected[2]
        body = body.body
    if _infer(body, env) != expected:
        raise LexiconError("template body type does not match category")


_KIND_BY_SLOT = {"filter": dsl.PROPERTY, "relate": dsl.RELATION,
                 "goal": dsl.RELATION, "do": dsl.ACTION}


def sem_to_program(term: Sem) -> dsl.ProgramNode:
    """Convert a fully reduced, variable-free term into a program tree."""
    if not isinstance(term, OpNode):
        raise NoParseConversion(term)
    if term.op == "scene":
        return dsl.Scene()
    if term.op == "filter":
        return dsl.Filter(sem_to_program(term.args[0]), _word(term.args[1], "filter"))
    if term.op == "relate":
        return dsl.Relate(sem_to_program(term.args[0]), sem_to_program(term.args[1]),
                          _word(term.args[2], "relate"))
    if term.op == "goal":
        return dsl.Goal(sem_to_program(term.args[0]), sem_to_program(term.args[1]),
                        _word(term.args[2], "goal"))
    if term.op == "do":
        return dsl.Do(sem_to_program(term.args[0]), _word(term.args[1], "do"))
    if term.op == "objunion":
        return dsl.ObjUnion(sem_to_program(term.args[0]), sem_to_program(term.args[1]))
    if term.op == "actionconcat":
        return dsl.ActionConcat(sem_to_program(term.args[0]), sem_to_program(term.args[1]))
    raise NoParseConversion(term)


class NoParseConversion(Exception):
    pass


def _word(arg: Sem, op: str) -> dsl.ConceptToken:
    if not isinstance(arg, Word):
        raise NoParseConversion(arg)
    return dsl.ConceptToken(arg.text, _KIND_BY_SLOT[op])


def abstract_template(term: Sem, word: str) -> Sem:
    """Replace occurrences of the entry's own word with the open slot."""
    if isinstance(term, Word) and term.text == word:
        return Slot()
    if isinstance(term, Lam):
        return Lam(term.param, abstract_template(term.body, word))
    if isinstance(term, App):
        return App(abstract_template(term.fn, word), abstract_template(term.arg, word))
    if isinstance(term, OpNode):
        return OpNode(term.op, tuple(abstract_template(a, word) for a in term.args))
    return term


def instantiate_template(term: Sem, word: str) -> Sem:
    if isinstance(term, Slot):
        return Word(word)
    if isinstance(term, Lam):
        return Lam(term.param, instantiate_template(term.body, word))
    if isinstance(term, App):
        return App(instantiate_template(term.fn, word), instantiate_template(term.arg, word))
    if isinstance(term, OpNode):
        return OpNode(term.op, tuple(instantiate_template(a, word) for a in term.args))
    return term


# --------------------------------------------------------------------------
# Lexicon


@dataclass(frozen=True)
class LexiconEntry:
    word: str
    category: Category
    template: Sem
    weight: float = 1.0

    def __post_init__(self):
        if not self.word:
            raise LexiconError("empty word")
        if self.weight <= 0:
            raise LexiconError(f"{self.word}: weight must be positive")
        check_template(self.template, self.category)


class Lexicon:
    """Immutable word -> entries multimap."""

    def __init__(self, entries):
        self._entries: dict[str, tuple[LexiconEntry, ...]] = {}
        for e in entries:
            self._entries.setdefault(e.word, ())
            self._entries[e.word] = self._entries[e.word] + (e,)

    @property
    def vocabulary(self) -> set[str]:
        return set(self._entries)

    def entries_for(self, word: str) -> tuple[LexiconEntry, ...]:
        return self._entries.get(word, ())

    def all_entries(self) -> list[LexiconEntry]:
        return [e for word in self._entries for e in self._entries[word]]

    def categories(self) -> list[Category]:
        seen: dict[Category, None] = {}
        for e in self.all_entries():
            seen.setdefault(e.category)
        return sorted(seen, key=category_to_str)

    @classmethod
    def from_string(cls, text: str) -> "Lexicon":
        entries = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.rstrip()
            if not line or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise LexiconError(f"line {lineno}: expected 3 or 4 tab-separated fields")
            word, cat_text, template_text = fields[0].strip(), fields[1], fields[2]
            weight = float(fields[3]) if len(fields) == 4 else 1.0
            entries.append(LexiconEntry(word, parse_category(cat_text),
                                        parse_template(template_text), weight))
        return cls(entries)

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        with open(path, encoding="utf-8") as f:
            return cls.from_string(f.read())


def default_lexicon() -> Lexicon:
    from importlib.resources import files

    return Lexicon.from_string(files("tablang").joinpath("data/lexicon.txt").read_text())


def tokenize(text: str, lexicon: Lexicon | None = None) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace; multiword
    vocabulary phrases are greedily joined, longest match first."""
    raw = re.findall(r"[a-z0-9][a-z0-9-]*", text.lower())
    if lexicon is None:
        return raw
    phrases = [w for w in lexicon.vocabulary if " " in w]
    max_len = max((p.count(" ") + 1 for p in phrases), default=1)
    out: list[str] = []
    i = 0
    while i < len(raw):
        for span in range(min(max_len, len(raw) - i), 1, -1):
            joined = " ".join(raw[i:i + span])
            if joined in lexicon.vocabulary:
                out.append(joined)
                i += span
                break
        else:
            out.append(raw[i])
            i += 1
    return out


# --------------------------------------------------------------------------
# Combination and chart parsing


def _combinations(left: tuple[Category, Sem], right: tuple[Category, Sem]):
    results = []
    lcat, lsem = left
    rcat, rsem = right
    if isinstance(lcat, Complex) and lcat.direction == FORWARD and lcat.argument == rcat:
        sem = apply_sem(lsem, rsem)
        if sem is not None:
            results.append((lcat.result, sem))
    if isinstance(rcat, Complex) and rcat.direction == BACKWARD and rcat.argument == lcat:
        sem = apply_sem(rsem, lsem)
        if sem is not None:
            results.append((rcat.result, sem))
    return results


@dataclass(frozen=True)
class OovAssignment:
    word: str
    category: Category
    template: Sem
    log_prior: float

    def describe(self) -> str:
        return f"{self.word}: {category_to_str(self.category)} {template_to_str(self.template)}"


@dataclass(frozen=True)
class Derivation:
    root_category: Category
    program: dsl.ProgramNode
    log_score: float
    oov_assignments: tuple[OovAssignment, ...] = ()


def _chart_roots(tokens, lookup) -> list:
    """CKY chart over the token sequence; lookup(token) yields
    (category, sem, log_score, oov_tuple) leaves."""
    n = len(tokens)
    cells: dict[tuple[int, int], dict] = {}
    for i, tok in enumerate(tokens):
        cell: dict = {}
        for cat, sem, logp, oov in lookup(tok):
            key = (cat, sem, oov)
            if key not in cell or logp > cell[key]:
                cell[key] = logp
        cells[(i, i + 1)] = cell
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            j = i + span
            cell = {}
            for split in range(i + 1, j):
                for (lcat, lsem, loov), llog in cells[(i, split)].items():
                    for (rcat, rsem, roov), rlog in cells[(split, j)].items():
                        for cat, sem in _combinations((lcat, lsem), (rcat, rsem)):
                            key = (cat, sem, loov + roov)
                            logp = llog + rlog
                            if key not in cell or logp > cell[key]:
                                cell[key] = logp
            cells[(i, j)] = cell
    return [(cat, sem, logp, oov) for (cat, sem, oov), logp in cells[(0, n)].items()]


def _lexicon_leaves(lexicon: Lexicon, extra: dict[str, list] | None = None):
    extra = extra or {}

    def lookup(token: str):
        leaves = [
            (e.category, e.template, math.log(e.weight), ())
            for e in lexicon.entries_for(token)
        ]
        for assignment in extra.get(token, ()):
            leaves.append(
                (assignment.category, instantiate_template(assignment.template, token),
                 assignment.log_prior, (assignment,))
            )
        return leaves

    return lookup


def semantic_prior(lexicon: Lexicon) -> dict[Category, list[tuple[Sem, float]]]:
    """Weight-proportional distribution over abstract templates per category."""
    weights: dict[Category, dict[Sem, float]] = {}
    for e in lexicon.all_entries():
        abstract = abstract_template(e.template, e.word)
        per_cat = weights.setdefault(e.category, {})
        per_cat[abstract] = per_cat.get(abstract, 0.0) + e.weight
    prior: dict[Category, list[tuple[Sem, float]]] = {}
    for cat, per_cat in weights.items():
        total = sum(per_cat.values())
        ranked = sorted(per_cat.items(), key=lambda kv: (-kv[1], template_to_str(kv[0])))
        prior[cat] = [(tmpl, w / total) for tmpl, w in ranked]
    return prior


def _candidates_for(word: str, lexicon: Lexicon,
                    prior: dict[Category, list[tuple[Sem, float]]]) -> list[OovAssignment]:
    out = []
    for cat in lexicon.categories():
        for tmpl, p in prior.get(cat, ()):
            out.append(OovAssignment(word, cat, tmpl, math.log(p)))
    return out


MAX_JOINT_OOV = 2
MAX_OOV_COMBOS = 64


def _derivations_from_roots(roots) -> list[Derivation]:
    best: dict[tuple, tuple[float, Derivation]] = {}
    for cat, sem, logp, oov in roots:
        if cat != S:
            continue
        try:
            program = sem_to_program(sem)
            dsl.type_check(program)
        except (NoParseConversion, dsl.TypeMismatch):
            continue
        deriv = Derivation(cat, program, logp, oov)
        key = (dsl.serialize(program), oov)
        if key not in best or logp > best[key][0]:
            best[key] = (logp, deriv)
    ranked = sorted(
        best.values(),
        key=lambda pair: (-pair[0], dsl.serialize(pair[1].program),
                          tuple(a.describe() for a in pair[1].oov_assignments)),
    )
    return [d for _, d in ranked]


def parse(tokens, lexicon: Lexicon, k: int = 1) -> list[Derivation]:
    """Top-k complete derivations, scored by summed log entry weights plus
    log priors of any novel-word assignments. Deterministic: ties break on
    the canonical program string.

    Joint assignments of the unknown words (at most MAX_JOINT_OOV) are
    ranked by summed log prior and cut to MAX_OOV_COMBOS; a sentence without
    unknown words has the one empty combination. One chart is built over the
    leaves of every assignment that occurs in a kept combination, and only
    roots whose assignments form one kept combination survive, so a repeated
    unknown word never mixes two guesses."""
    if k < 1:
        raise ValueError("k must be positive")
    tokens = list(tokens)
    if not tokens:
        raise NoParse(tokens)
    unknown = [t for t in dict.fromkeys(tokens) if not lexicon.entries_for(t)]
    if len(unknown) > MAX_JOINT_OOV:
        raise NoParse(tokens)
    prior = semantic_prior(lexicon) if unknown else {}
    per_word = [_candidates_for(w, lexicon, prior) for w in unknown]
    combos = sorted(
        itertools.product(*per_word),
        key=lambda combo: (-sum(c.log_prior for c in combo),
                           tuple(c.describe() for c in combo)),
    )[:MAX_OOV_COMBOS]
    extra = {w: list(dict.fromkeys(combo[i] for combo in combos))
             for i, w in enumerate(unknown)}
    # Every unknown token is a leaf of every root, so a root's assignment set
    # equals a kept combo exactly when it gives each unknown word a single
    # assignment and that joint assignment was kept.
    kept = {frozenset(combo) for combo in combos}
    roots = [root for root in _chart_roots(tokens, _lexicon_leaves(lexicon, extra))
             if frozenset(root[3]) in kept]
    derivs = _derivations_from_roots(roots)
    if not derivs:
        raise NoParse(tokens)
    return derivs[:k]
