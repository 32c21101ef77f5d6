"""CCG semantic parser: lexicon, combinators, chart, and novel-word handling.

Each lexicon entry pairs a word with a syntactic category and a semantic
template: a dsl program tree with binders, written in dsl's program syntax
plus \\x. binders (dsl.read) and type-checked by dsl.type_check against the
category's image (N -> Object, PP -> Object -> Goal, S -> Plan). Parsing is
CKY over two universal combinators (forward and backward application), so a
closed S root is itself the program; coordination is carried by ordinary
entries for "and". A word outside the vocabulary is handled by guessing its
reading: a category of the lexicon with a template drawn from the empirical
prior p(semantics | syntax), the word slot filled by the literal token, such
that the sentence still parses completely. The lexicon ranks these readings
once; every unknown word gets a leaf per reading, all in one chart. Chart keys
carry each item's novel-word assignments, so derivations under different
guesses never merge, and a root is kept only if it gives each unknown word a
single reading.
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
# Deepest parenthesis nesting parse_category accepts: it recurses once per level.
MAX_CATEGORY_DEPTH = 32
# One token as tokenize produces it; a lexicon word is such tokens joined by single spaces.
TOKEN = r"[a-z0-9][a-z0-9-]*"


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
    depths = itertools.accumulate(((t == "(") - (t == ")") for t in tokens), initial=0)
    if max(depths) > MAX_CATEGORY_DEPTH:
        raise LexiconError(f"category nests deeper than {MAX_CATEGORY_DEPTH} parentheses")
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
# Semantic terms: dsl program trees with binders (Lam, Var, App, Slot). A Var
# is a de Bruijn index, so alpha-equivalent terms are equal as values. The
# walks read a node's fields as vars(node).values(), dsl.fields inlined: the
# chart normalizes every combination, and a call per node shows in parse time.


def _shift(term, by: int, cutoff: int = 0):
    """term with by added to every index that points past its cutoff binders."""
    if isinstance(term, Var):
        return Var(term.index + by) if term.index >= cutoff else term
    if isinstance(term, Lam):
        return Lam(_shift(term.body, by, cutoff + 1))
    if isinstance(term, ProgramNode):
        return type(term)(*[_shift(v, by, cutoff) for v in vars(term).values()])
    return term


def _open(body, arg: ProgramNode, depth: int = 0):
    """body, a Lam's body depth binders down, with arg for the Lam's variable:
    arg is shifted over those binders, and the indices of binders outside
    the Lam drop by one."""
    if isinstance(body, Var):
        if body.index == depth:
            return _shift(arg, depth) if depth else arg
        return Var(body.index - 1) if body.index > depth else body
    if isinstance(body, Lam):
        return Lam(_open(body.body, arg, depth + 1))
    if isinstance(body, ProgramNode):
        return type(body)(*[_open(v, arg, depth) for v in vars(body).values()])
    return body


def beta_normalize(term):
    if isinstance(term, App):
        fn = beta_normalize(term.fn)
        arg = beta_normalize(term.arg)
        if isinstance(fn, Lam):
            return beta_normalize(_open(fn.body, arg))
        return App(fn, arg)
    if isinstance(term, ProgramNode) and type(term) is not Var:
        return type(term)(*map(beta_normalize, vars(term).values()))
    return term


def apply_sem(fn: ProgramNode, arg: ProgramNode) -> ProgramNode | None:
    if not isinstance(fn, Lam):
        return None
    # Chart items are normal already, so only the opened body needs normalizing.
    return beta_normalize(_open(fn.body, arg))


def parse_template(text: str) -> ProgramNode:
    """Read a lexicon template: dsl program syntax plus \\x. binders."""
    try:
        return beta_normalize(dsl.read(text))
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
    env = ()
    body = term
    while isinstance(body, Lam):
        if not isinstance(expected, tuple):
            raise LexiconError("template has more binders than the category")
        env, expected = env + (expected[0],), expected[1]
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
        if not re.fullmatch(f"{TOKEN}( {TOKEN})*", self.word):
            raise LexiconError(f"word {self.word!r}: not lowercase tokens joined by single spaces")
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise LexiconError(f"{self.word}: weight must be finite and positive")
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
    def readings(self) -> list[tuple[Category, ProgramNode, float]]:
        """The MAX_OOV_READINGS likeliest (category, abstract template, log
        prior) readings of a novel word under semantic_prior, ties broken on
        their text. Built on first use and kept, since the entries never
        change; shared by every caller, so read-only."""
        readings = [(cat, tmpl, math.log(p))
                    for cat, dist in semantic_prior(self).items() for tmpl, p in dist]
        readings.sort(key=lambda r: (-r[2], f"{category_to_str(r[0])} {dsl.serialize(r[1])}"))
        return readings[:MAX_OOV_READINGS]

    def entries_for(self, word: str) -> tuple[LexiconEntry, ...]:
        return self._entries.get(word, ())

    def all_entries(self) -> list[LexiconEntry]:
        return [e for word in self._entries for e in self._entries[word]]

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


def tokenize(text: str, lexicon: Lexicon) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace; multiword
    vocabulary phrases are greedily joined, longest match first."""
    raw = re.findall(TOKEN, text.lower())
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


def _lexicon_leaves(lexicon: Lexicon, extra: dict[str, list]):
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


MAX_JOINT_OOV = 2
MAX_OOV_READINGS = 64
# Longest token sequence parse accepts, about twice the longest generated
# instruction: a chart cell keeps every bracketing of a coordination, so parse
# time grows exponentially with length.
MAX_TOKENS = 32


def _derivations_from_roots(roots) -> list[Derivation]:
    derivs = []
    for cat, sem, logp, oov in roots:
        if cat != S:
            continue
        try:
            dsl.type_check(sem)
        except dsl.TypeMismatch:
            continue
        derivs.append(Derivation(sem, logp, oov))
    return sorted(derivs, key=lambda d: (-d.log_score, dsl.serialize(d.program),
                                         tuple(a.describe() for a in d.oov_assignments)))


def parse(tokens, lexicon: Lexicon, k: int = 1) -> list[Derivation]:
    """Top-k complete derivations, scored by summed log entry weights plus
    log priors of any novel-word assignments. Deterministic: ties break on
    the program string.

    Each unknown word (at most MAX_JOINT_OOV of them) gets a leaf for every
    one of lexicon.readings, all in one chart, and only roots that give each
    unknown word a single reading survive, so a repeated unknown word never
    mixes two guesses. More than MAX_TOKENS tokens is a NoParse."""
    if k < 1:
        raise ValueError("k must be positive")
    tokens = list(tokens)
    if not tokens or len(tokens) > MAX_TOKENS:
        raise NoParse(tokens)
    unknown = [t for t in dict.fromkeys(tokens) if not lexicon.entries_for(t)]
    if len(unknown) > MAX_JOINT_OOV:
        raise NoParse(tokens)
    extra = {w: [OovAssignment(w, *r) for r in lexicon.readings] for w in unknown}
    # Every unknown token is a leaf of every root, so a root holds one
    # distinct assignment per unknown word exactly when it mixes no guesses.
    roots = [root for root in _chart_roots(tokens, _lexicon_leaves(lexicon, extra))
             if len(set(root[3])) == len(unknown)]
    derivs = _derivations_from_roots(roots)
    if not derivs:
        raise NoParse(tokens)
    return derivs[:k]
