"""CCG semantic parser: lexicon, combinators, chart, and novel-word handling.

Each lexicon entry pairs a word with a syntactic category and a semantic
template: a dsl program tree with binders, written in dsl's program syntax
plus \\x. binders (dsl.read) and type-checked by dsl.type_check against the
category's image (N -> Object, PP -> Object -> Goal, S -> Plan). Parsing is
CKY over two universal combinators (forward and backward application), so a
closed S root is itself the program; coordination is carried by ordinary
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

import functools
import itertools
import math
import re
from dataclasses import dataclass

from . import dsl
from .dsl import App, Lam, ProgramNode, Var

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
# Semantic terms: dsl program trees with binders (Lam, Var, App, Slot). The
# walks read a node's fields as vars(node).values(), dsl.fields inlined: the
# chart normalizes every combination, and a call per node shows in parse time.


def free_vars(term: ProgramNode) -> set[str]:
    if isinstance(term, Var):
        return {term.name}
    if isinstance(term, Lam):
        return free_vars(term.body) - {term.param}
    out: set[str] = set()
    for value in vars(term).values():
        if isinstance(value, ProgramNode):
            out |= free_vars(value)
    return out


def _subst(term, name: str, value: ProgramNode):
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
    if isinstance(term, ProgramNode):
        return type(term)(*[_subst(v, name, value) for v in vars(term).values()])
    return term


def beta_normalize(term):
    if isinstance(term, App):
        fn = beta_normalize(term.fn)
        arg = beta_normalize(term.arg)
        if isinstance(fn, Lam):
            return beta_normalize(_subst(fn.body, fn.param, arg))
        return App(fn, arg)
    if isinstance(term, Lam):
        return Lam(term.param, beta_normalize(term.body))
    if isinstance(term, ProgramNode) and type(term) is not Var:
        return type(term)(*map(beta_normalize, vars(term).values()))
    return term


def _alpha_walk(t, env: dict[str, str], counter: itertools.count):
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, Lam):
        fresh = f"v{next(counter)}"
        return Lam(fresh, _alpha_walk(t.body, {**env, t.param: fresh}, counter))
    if isinstance(t, ProgramNode):
        return type(t)(*[_alpha_walk(v, env, counter) for v in vars(t).values()])
    return t


def alpha_normalize(term: ProgramNode) -> ProgramNode:
    """Rename binders to v0, v1, ... in traversal order so that structural
    equality coincides with alpha equivalence."""
    return _alpha_walk(term, {}, itertools.count())


def canonical(term: ProgramNode) -> ProgramNode:
    return alpha_normalize(beta_normalize(term))


def apply_sem(fn: ProgramNode, arg: ProgramNode) -> ProgramNode | None:
    if not isinstance(fn, Lam):
        return None
    # Chart items are canonical already, so only the substituted body needs normalizing.
    return alpha_normalize(beta_normalize(_subst(fn.body, fn.param, arg)))


def parse_template(text: str) -> ProgramNode:
    """Read a lexicon template: dsl program syntax plus \\x. binders."""
    try:
        return canonical(dsl.read(text))
    except dsl.ProgramSyntaxError as exc:
        raise LexiconError(f"{exc} in template {text!r}") from None


# --------------------------------------------------------------------------
# Category -> semantic-type homomorphism and template checking


def category_sem_type(cat: Category):
    """The dsl type of a category: a SemanticType, or (argument, result)."""
    if isinstance(cat, Prim):
        if cat.name in ("N", "NP"):
            return dsl.SemanticType.OBJECT
        if cat.name == "S":
            return dsl.SemanticType.PLAN
        if cat.name == "PP":
            return (dsl.SemanticType.OBJECT, dsl.SemanticType.GOAL)
        raise LexiconError(f"no semantic type for {cat.name}")
    return (category_sem_type(cat.argument), category_sem_type(cat.result))


def check_template(term: ProgramNode, cat: Category) -> None:
    """Verify the template's type matches the category image under the
    standard homomorphism (N -> Object, PP -> Object -> Goal, S -> Plan)."""
    expected = category_sem_type(cat)
    env = {}
    body = term
    while isinstance(body, Lam):
        if not isinstance(expected, tuple):
            raise LexiconError("template has more binders than the category")
        env[body.param], expected = expected
        body = body.body
    try:
        found = dsl.type_check(body, env)
    except dsl.TypeMismatch as exc:
        raise LexiconError(f"template {dsl.serialize(term)}: {exc}") from None
    if found != expected:
        raise LexiconError("template body type does not match category")


def abstract_template(term, word: str):
    """Replace occurrences of the entry's own word with an open slot."""
    if isinstance(term, dsl.ConceptToken):
        return dsl.Slot(term.kind) if term.word == word else term
    if isinstance(term, ProgramNode):
        return type(term)(*[abstract_template(v, word) for v in vars(term).values()])
    return term


def instantiate_template(term, word: str):
    if isinstance(term, dsl.Slot):
        return dsl.ConceptToken(word, term.kind)
    if isinstance(term, ProgramNode):
        return type(term)(*[instantiate_template(v, word) for v in vars(term).values()])
    return term


# --------------------------------------------------------------------------
# Lexicon


@dataclass(frozen=True)
class LexiconEntry:
    word: str
    category: Category
    template: ProgramNode
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

    @functools.cached_property
    def prior(self) -> dict[Category, list[tuple[ProgramNode, float]]]:
        """semantic_prior of this lexicon, built on first use and kept; the
        entries never change. Shared by every caller, so read-only."""
        return semantic_prior(self)

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
            try:
                weight = float(fields[3]) if len(fields) == 4 else 1.0
                entries.append(LexiconEntry(word, parse_category(cat_text),
                                            parse_template(template_text), weight))
            except (LexiconError, ValueError) as exc:
                raise LexiconError(f"line {lineno}: {exc}") from None
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


def _combinations(left: tuple[Category, ProgramNode], right: tuple[Category, ProgramNode]):
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
    template: ProgramNode
    log_prior: float

    def describe(self) -> str:
        return f"{self.word}: {category_to_str(self.category)} {dsl.serialize(self.template)}"


@dataclass(frozen=True)
class Derivation:
    root_category: Category
    program: ProgramNode
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


def semantic_prior(lexicon: Lexicon) -> dict[Category, list[tuple[ProgramNode, float]]]:
    """Weight-proportional distribution over abstract templates per category."""
    weights: dict[Category, dict[ProgramNode, float]] = {}
    for e in lexicon.all_entries():
        abstract = abstract_template(e.template, e.word)
        per_cat = weights.setdefault(e.category, {})
        per_cat[abstract] = per_cat.get(abstract, 0.0) + e.weight
    prior: dict[Category, list[tuple[ProgramNode, float]]] = {}
    for cat, per_cat in weights.items():
        total = sum(per_cat.values())
        ranked = sorted(per_cat.items(), key=lambda kv: (-kv[1], dsl.serialize(kv[0])))
        prior[cat] = [(tmpl, w / total) for tmpl, w in ranked]
    return prior


def _candidates_for(word: str, lexicon: Lexicon,
                    prior: dict[Category, list[tuple[ProgramNode, float]]]) -> list[OovAssignment]:
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
            dsl.type_check(sem)
        except dsl.TypeMismatch:
            continue
        deriv = Derivation(cat, sem, logp, oov)
        key = (dsl.serialize(sem), oov)
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
    per_word = [_candidates_for(w, lexicon, lexicon.prior) for w in unknown]
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
