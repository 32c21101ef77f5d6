"""CCG semantic parser: lexicon, combinators, chart, and novel-word handling.

Each lexicon entry pairs a word with a syntactic category and a semantic
template: a dsl program tree with binders, written in dsl's program syntax
plus \\x. binders (dsl.read) and type-checked by dsl.type_check against the
category's image (PRIMITIVES). Parsing is CKY over forward and backward
application, so a closed S root is itself the program ("and" is an ordinary
entry). Types are checked once, when an entry loads: application needs the
argument's category and preserves types, so every chart item is well-typed
and no parse result is checked again. A word outside the vocabulary gets a
leaf per reading that the lexicon ranks once from the empirical prior
p(semantics | syntax), its slot filled by the word; chart keys carry these
guesses, so they never merge, and a root must give each unknown word one
reading. Words of one class parse alike, so the lexicon keeps the roots of
each instruction shape's first sentence, and a later sentence of that shape
renames the best of them to its own words.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import dsl
from .dsl import App, Lam, ProgramNode, Var

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
# Syntactic categories: a primitive is its name, a complex category a Complex.


class Complex(NamedTuple):
    result: Category
    direction: str  # FORWARD or BACKWARD
    argument: Category


Category = str | Complex
N, NP, S, PP = "N", "NP", "S", "PP"
# The category image: each primitive's dsl type (a SemanticType, or (argument, result)).
PRIMITIVES = {N: dsl.SemanticType.OBJECT, NP: dsl.SemanticType.OBJECT, S: dsl.SemanticType.PLAN,
              PP: (dsl.SemanticType.OBJECT, dsl.SemanticType.GOAL)}


def category_to_str(cat: Category) -> str:
    if isinstance(cat, str):
        return cat
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
            return tok
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
# is a de Bruijn index, so alpha-equivalent terms are equal as values. _open
# reduces each redex where its substitution creates it (hereditary substitution),
# so a normal argument is not normalized again, only shifted under binders. It is
# the only normalizer. Walks read vars(node).values(): a wrapper's calls show in parse time.


def _rebuilt(node: ProgramNode, values: list) -> ProgramNode:
    """node with values for its fields; node itself if each value is the field it replaces."""
    if all(map(operator.is_, values, vars(node).values())):
        return node
    return type(node)(*values)


def _shift(term, by: int, cutoff: int = 0):
    """term with by added to every index that points past its cutoff binders."""
    if isinstance(term, Var):
        return Var(term.index + by) if term.index >= cutoff else term
    if isinstance(term, Lam):
        return _rebuilt(term, [_shift(term.body, by, cutoff + 1)])
    if isinstance(term, ProgramNode):
        return _rebuilt(term, [_shift(v, by, cutoff) for v in vars(term).values()])
    return term


def _open(body, arg: ProgramNode, depth: int = 0):
    """body, a Lam's body depth binders down, with arg for the Lam's variable:
    arg is shifted over those binders, and the indices of binders outside
    the Lam drop by one. A redex this creates, or finds, is reduced in turn,
    so for a normal arg the result is normal and arg is not normalized again."""
    if isinstance(body, Var):
        if body.index == depth:
            return _shift(arg, depth) if depth else arg
        return Var(body.index - 1) if body.index > depth else body
    if isinstance(body, Lam):
        return _rebuilt(body, [_open(body.body, arg, depth + 1)])
    if isinstance(body, App):
        fn, opened = _open(body.fn, arg, depth), _open(body.arg, arg, depth)
        return _open(fn.body, opened) if isinstance(fn, Lam) else _rebuilt(body, [fn, opened])
    if isinstance(body, ProgramNode):
        return _rebuilt(body, [_open(v, arg, depth) for v in vars(body).values()])
    return body


def apply_sem(fn: Lam, arg: ProgramNode) -> ProgramNode:
    # arg must be normal, as every chart item is: it is not normalized again.
    return _open(fn.body, arg)


def parse_template(text: str) -> ProgramNode:
    """Read a lexicon template: dsl program syntax plus \\x. binders. It is
    normal as read: read applies arguments only to bound variables, never to a Lam."""
    try:
        return dsl.read(text)
    except dsl.ProgramSyntaxError as exc:
        raise LexiconError(f"{exc} in template {text!r}") from None


# --------------------------------------------------------------------------
# Category -> semantic-type homomorphism and template checking


def category_sem_type(cat: Category):
    """The dsl type of a category: a SemanticType, or (argument, result)."""
    if isinstance(cat, Complex):
        return (category_sem_type(cat.argument), category_sem_type(cat.result))
    if isinstance(cat, str) and cat in PRIMITIVES:
        return PRIMITIVES[cat]
    raise LexiconError(f"not a category: {cat!r}")


def check_template(term: ProgramNode, cat: Category) -> None:
    """Verify the template's type matches the category's image (PRIMITIVES)."""
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


def _reword(term, leaf):
    """term with leaf(c) for each ConceptToken or Slot c: the one word walk."""
    if isinstance(term, (dsl.ConceptToken, dsl.Slot)):
        return leaf(term)
    if isinstance(term, ProgramNode):
        return type(term)(*[_reword(v, leaf) for v in vars(term).values()])
    return term


def abstract_template(term, word: str):
    """Replace occurrences of the entry's own word with an open slot."""
    return _reword(term, lambda c: dsl.Slot(c.kind) if getattr(c, "word", None) == word else c)


def instantiate_template(term, word: str):
    return _reword(term, lambda c: dsl.ConceptToken(word, c.kind) if isinstance(c, dsl.Slot) else c)


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
            self._entries[e.word] = self._entries.get(e.word, ()) + (e,)

    @functools.cached_property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(self._entries)

    @functools.cached_property
    def phrase_tokens(self) -> int:
        """Tokens in the longest vocabulary word, 1 without multiword phrases."""
        return max((w.count(" ") + 1 for w in self._entries), default=1)

    @functools.cached_property
    def readings(self) -> list[tuple[Category, ProgramNode, float]]:
        """The MAX_OOV_READINGS likeliest (category, abstract template, log
        prior) readings of a novel word under semantic_prior, ties broken on
        their text. Built on first use and kept; read-only."""
        readings = [(cat, tmpl, math.log(p))
                    for cat, dist in semantic_prior(self).items() for tmpl, p in dist]
        readings.sort(key=lambda r: (-r[2], f"{category_to_str(r[0])} {dsl.serialize(r[1])}"))
        return readings[:MAX_OOV_READINGS]

    @functools.cached_property
    def classes(self) -> dict[str, int]:
        """word -> its class id: words whose entries have the same sorted
        (category, abstract template, weight) share one, and a word that a
        template holds as a fixed concept has its own. Other words are not keys."""
        kinds = {w: tuple(sorted(((e.category, abstract_template(e.template, w), e.weight)
                                  for e in es), key=repr)) for w, es in self._entries.items()}
        found: list = []
        for _, tmpl, _ in itertools.chain(*kinds.values()):
            _reword(tmpl, lambda c: found.append(c) or c)
        kinds.update((c.word, c.word) for c in found if isinstance(c, dsl.ConceptToken))
        ids = {k: i for i, k in enumerate(dict.fromkeys(kinds.values()))}
        return {w: ids[k] for w, k in kinds.items()}

    # parse's memo by shape: (root items, item count, distinct tokens) of its first sentence.
    charts = functools.cached_property(lambda self: {})

    def shape(self, tokens) -> tuple[tuple[int | None, int], ...]:
        """Each token's (class, rank of its distinct token within the class by
        first occurrence), the class None for a word outside classes. Sentences
        of one shape differ only by a one-to-one renaming of their words."""
        ranks, counts = {}, {}
        for t in dict.fromkeys(tokens):
            c = self.classes.get(t)
            ranks[t] = c, next(counts.setdefault(c, itertools.count()))
        return tuple(ranks[t] for t in tokens)

    def entries_for(self, word: str) -> tuple[LexiconEntry, ...]:
        return self._entries.get(word, ())

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
    out: list[str] = []
    i = 0
    while i < len(raw):
        for span in range(min(lexicon.phrase_tokens, len(raw) - i), 1, -1):
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
        results.append((lcat.result, apply_sem(lsem, rsem)))
    if isinstance(rcat, Complex) and rcat.direction == BACKWARD and rcat.argument == lcat:
        results.append((rcat.result, apply_sem(rsem, lsem)))
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


def _chart_roots(tokens, lookup) -> tuple[list, int]:
    """CKY chart over the token sequence; lookup(token) yields
    (category, sem, log_score, oov_tuple) leaves. Returns the root cell's
    items and the items summed over all cells, leaves included. A chart that
    would hold more than MAX_CHART_ITEMS items is a NoParse, though the
    leaves alone are never refused."""
    n = len(tokens)
    chart, items = {}, 0  # (start, end) -> {(category, sem, oov_tuple): log_score}
    for i, token in enumerate(tokens):
        cell = chart[i, i + 1] = {}
        for cat, sem, logp, oov in lookup(token):
            cell[cat, sem, oov] = max(logp, cell.get((cat, sem, oov), logp))
        items += len(cell)
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            cell = chart[i, i + span] = {}
            for split in range(i + 1, i + span):
                for (lcat, lsem, loov), llog in chart[i, split].items():
                    for (rcat, rsem, roov), rlog in chart[split, i + span].items():
                        for cat, sem in _combinations((lcat, lsem), (rcat, rsem)):
                            # One hash of the key per combination, unless it scores higher.
                            key, logp, size = (cat, sem, loov + roov), llog + rlog, len(cell)
                            if cell.setdefault(key, logp) < logp:
                                cell[key] = logp
                            elif len(cell) > size:
                                items += 1
                                if items > MAX_CHART_ITEMS:
                                    raise NoParse(tokens)
    return [(cat, sem, logp, oov) for (cat, sem, oov), logp in chart[0, n].items()], items


def semantic_prior(lexicon: Lexicon) -> dict[Category, list[tuple[ProgramNode, float]]]:
    """Weight-proportional distribution over abstract templates per category."""
    weights: dict[Category, dict[ProgramNode, float]] = {}
    for e in itertools.chain(*lexicon._entries.values()):
        abstract = abstract_template(e.template, e.word)
        per_cat = weights.setdefault(e.category, {})
        per_cat[abstract] = per_cat.get(abstract, 0.0) + e.weight
    return {cat: [(tmpl, w / total) for tmpl, w in per_cat.items()]
            for cat, per_cat in weights.items() for total in [sum(per_cat.values())]}


MAX_JOINT_OOV = 2
MAX_OOV_READINGS = 64
# Charts grow about 4x per conjunct or relation link (a cell keeps every
# bracketing and attachment), so parse bounds the tokens, about twice the
# longest generated instruction, and then the items summed over all cells
# (75 at most for a generated instruction).
MAX_TOKENS = 32
MAX_CHART_ITEMS = 4096


def _derivations_from_roots(roots, k: int, words: dict[str, str]) -> list[Derivation]:
    """The k best S roots by log score, then program text, then assignments;
    only roots scoring at least the k-th best are renamed (words) and serialized."""
    kth = min(sorted((r[2] for r in roots if r[0] == S), reverse=True)[:k], default=0.0)
    derivs = [Derivation(_reword(sem, lambda c: dsl.ConceptToken(words.get(c.word, c.word), c.kind)),
                         logp, tuple(replace(a, word=words[a.word]) for a in oov))
              for cat, sem, logp, oov in roots if cat == S and logp >= kth]
    return derivs if len(derivs) < 2 else sorted(derivs, key=lambda d: (
        -d.log_score, dsl.serialize(d.program), tuple(a.describe() for a in d.oov_assignments)))[:k]


def parse(tokens, lexicon: Lexicon, k: int = 1) -> list[Derivation]:
    """Top-k complete derivations, scored by summed log entry weights plus
    log priors of novel-word assignments; ties break on the program string.

    The first sentence of each shape (Lexicon.shape) builds its chart over
    its tokens, and Lexicon.charts keeps the chart's root items and item
    count, so a shape is built once per lexicon, and a kept count is refused
    as a new chart is. A shape's chart is its first sentence's, renamed: its
    distinct tokens map one-to-one onto these, and each fixed concept word,
    in a class of its own, onto itself, so the roots at or above the k-th
    best score are renamed item for item.
    Each unknown word (at most MAX_JOINT_OOV) gets a leaf per reading of the
    lexicon, and a root must give each one reading. More than MAX_TOKENS
    tokens, or a chart of more than MAX_CHART_ITEMS items, is a NoParse."""
    if k < 1:
        raise ValueError("k must be positive")
    tokens = list(tokens)
    distinct = tuple(dict.fromkeys(tokens))
    unknown = [t for t in distinct if not lexicon.entries_for(t)]
    if not tokens or len(tokens) > MAX_TOKENS or len(unknown) > MAX_JOINT_OOV:
        raise NoParse(tokens)

    def leaves(t: str):
        rows = [(e.category, e.template, math.log(e.weight), ()) for e in lexicon.entries_for(t)]
        return rows or [(c, instantiate_template(tmpl, t), lp, (OovAssignment(t, c, tmpl, lp),))
                        for c, tmpl, lp in lexicon.readings]

    shape = lexicon.shape(tokens)
    if shape not in lexicon.charts:
        lexicon.charts[shape] = (*_chart_roots(tokens, leaves), distinct)
    roots, items, first = lexicon.charts[shape]
    if len(tokens) > 1 and items > MAX_CHART_ITEMS:
        raise NoParse(tokens)
    # Every unknown token is a leaf of every root, so a root holds one
    # distinct assignment per unknown word exactly when it mixes no guesses.
    derivs = _derivations_from_roots([r for r in roots if len(set(r[3])) == len(unknown)], k,
                                     dict(zip(first, distinct)))
    if not derivs:
        raise NoParse(tokens)
    return derivs
