import functools
import gc
import itertools
import math
import time
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tablang import ccg, dsl
from tablang.benchmark import TASK_NAMES, TaskSpec, generate_episode
from tablang.ccg import (
    Complex,
    Lexicon,
    LexiconError,
    N,
    NoParse,
    _combinations,
    category_to_str,
    default_lexicon,
    parse,
    parse_category,
    parse_template,
    semantic_prior,
    tokenize,
)

GOLDEN = "do(goal(filter(filter(hexagon), blue), filter(filter(box), orange), in), pack)"


@pytest.fixture(scope="module")
def lex():
    return default_lexicon()


def test_parse_category_forms():
    assert parse_category("N") == N
    cat = parse_category("(S/PP)/N")
    assert isinstance(cat, Complex)
    assert category_to_str(cat) == "(S/PP)/N"
    assert category_to_str(parse_category("N/N")) == "N/N"
    back = parse_category(r"N\N")
    assert category_to_str(back) == "N\\N"
    with pytest.raises(LexiconError):
        parse_category("Q/N")
    deep = ccg.MAX_CATEGORY_DEPTH
    assert parse_category("(" * deep + "N" + ")" * deep) == N
    with pytest.raises(LexiconError, match="nests deeper"):
        parse_category("(" * (deep + 1) + "N" + ")" * (deep + 1))


def test_template_round_trip():
    t = parse_template(r"\x.filter(x, blue)")
    assert dsl.serialize(t) == "\\x.filter(x, blue)"
    t2 = parse_template(r"\y.\x.goal(x, y, in)")
    assert dsl.serialize(t2) == "\\x.\\y.goal(y, x, in)"


def test_default_lexicon_templates_round_trip(lex):
    for e in itertools.chain(*map(lex.entries_for, lex.vocabulary)):
        assert parse_template(dsl.serialize(e.template)) == e.template, e.word


def test_template_alpha_equivalence():
    assert parse_template(r"\x.filter(x, red)") == parse_template(r"\q.filter(q, red)")


def test_vocabulary_is_built_once(lex):
    assert isinstance(lex.vocabulary, frozenset)
    assert lex.vocabulary is lex.vocabulary
    assert {"pack", "blicket"} & lex.vocabulary == {"pack"}


def test_phrase_length_is_built_once():
    """tokenize reads the longest phrase's length from the lexicon, built on
    first use and kept: overwriting the kept value changes what is joined."""
    lexicon = Lexicon.from_string("porcelain plate\tN\tfilter(plate)\n"
                                  "big porcelain plate\tN\tfilter(plate)\n")
    assert "phrase_tokens" not in vars(lexicon)
    text = "the big porcelain plate and the porcelain plate"
    assert tokenize(text, lexicon) == ["the", "big porcelain plate", "and", "the",
                                       "porcelain plate"]
    assert vars(lexicon)["phrase_tokens"] == 3
    vars(lexicon)["phrase_tokens"] = 2
    assert tokenize(text, lexicon) == ["the", "big", "porcelain plate", "and", "the",
                                       "porcelain plate"]
    assert default_lexicon().phrase_tokens == 1


def test_lexicon_rejects_type_mismatch():
    with pytest.raises(LexiconError):
        Lexicon.from_string("bad\tN\t\\x.x\n")
    with pytest.raises(LexiconError):
        Lexicon.from_string("bad\tPP/N\t\\y.\\x.filter(x, y)\n")
    with pytest.raises(LexiconError):  # do takes exactly one goal
        Lexicon.from_string("bad\t(S/PP)/N\t\\o.\\p.do(p(o), p(o), pack)\n")
    # A variable applied though it is no function, and a function-typed one
    # used where its result is wanted: the error names both types.
    with pytest.raises(LexiconError) as exc:
        Lexicon.from_string("fep\tN/N\t\\x.x(scene())\n")
    assert str(exc.value).endswith(
        "template \\x.x(scene()): at 0: expected a function, found Object")
    with pytest.raises(LexiconError) as exc:
        Lexicon.from_string("fep\t(S/PP)/N\t\\o.\\p.do(p, pack)\n")
    assert str(exc.value).endswith("at 0.0: expected Goal, found (Object -> Goal)")


def test_entry_built_in_code_rejects_a_category_that_is_no_category():
    """An entry built in code, not read by parse_category, gets a LexiconError
    for an unknown primitive, unparsed category text or no category at all."""
    template = parse_template("filter(block)")
    for category in ("Q", "N/N", None, Complex(N, ccg.FORWARD, "Q")):
        with pytest.raises(LexiconError, match="not a category"):
            ccg.LexiconEntry("x", category, template)


def test_combine_forward_application():
    blue = (parse_category("N/N"), parse_template(r"\x.filter(x, blue)"))
    hexagon = (N, parse_template("filter(hexagon)"))
    assert _combinations(blue, hexagon) == \
        [(N, parse_template("filter(filter(hexagon), blue)"))]


def test_application_shares_the_argument_tree():
    """A combination copies no subtree it leaves unchanged: the modifier's
    result holds the noun's own node."""
    blue = (parse_category("N/N"), parse_template(r"\x.filter(x, blue)"))
    hexagon = (N, parse_template("filter(hexagon)"))
    (_, sem), = _combinations(blue, hexagon)
    assert sem.child is hexagon[1]


def test_combine_no_rule_for_adjacent_nouns():
    a = (N, parse_template("filter(red)"))
    b = (N, parse_template("filter(blue)"))
    assert _combinations(a, b) == []


def test_combine_coordination_two_steps(lex):
    and_entry = [e for e in lex.entries_for("and")
                 if category_to_str(e.category) == "(N\\N)/N"][0]
    red = (N, parse_template("filter(red)"))
    blue = (N, parse_template("filter(blue)"))
    partial = _combinations((and_entry.category, and_entry.template), blue)
    assert len(partial) == 1
    assert _combinations(red, partial[0]) == \
        [(N, parse_template("objunion(filter(red), filter(blue))"))]


def test_golden_parse(lex):
    toks = tokenize("pack the blue hexagon in the orange box", lex)
    derivs = parse(toks, lex, k=2)
    assert dsl.serialize(derivs[0].program) == GOLDEN
    assert derivs[0].oov_assignments == ()


def test_parse_determinism(lex):
    toks = tokenize("pack the flower into the brown box left of the star", lex)
    a = parse(toks, lex, k=5)
    b = parse(toks, lex, k=5)
    assert [dsl.serialize(d.program) for d in a] == [dsl.serialize(d.program) for d in b]
    assert [d.log_score for d in a] == [d.log_score for d in b]


def test_all_parses_type_check(lex):
    sentences = [
        "pack the blue hexagon in the orange box",
        "push the pile of red blocks into the green square",
        "put the blue blocks in a green bowl",
        "pack the star and the ring in the brown box",
        "pack the flower into the brown box left of the star right of the diamond",
    ]
    for s in sentences:
        for d in parse(tokenize(s, lex), lex, k=8):
            assert dsl.type_check(d.program) is dsl.SemanticType.PLAN


def test_no_parse(lex):
    with pytest.raises(NoParse):
        parse(tokenize("box pack the", lex), lex, k=1)


def test_oov_daxy_modifier(lex):
    toks = tokenize("pack the daxy shape into the box", lex)
    derivs = parse(toks, lex, k=3)
    top = derivs[0]
    assert dsl.serialize(top.program) == \
        "do(goal(filter(filter(shape), daxy), filter(box), into), pack)"
    assert len(top.oov_assignments) == 1
    a = top.oov_assignments[0]
    assert a.word == "daxy"
    assert category_to_str(a.category) == "N/N"
    assert ccg.instantiate_template(a.template, "daxy") == \
        parse_template(r"\x.filter(x, daxy)")


def test_oov_verb_slot(lex):
    toks = tokenize("gromp the block into the box", lex)
    top = parse(toks, lex, k=1)[0]
    assert dsl.serialize(top.program) == \
        "do(goal(filter(block), filter(box), into), gromp)"
    assert category_to_str(top.oov_assignments[0].category) == "(S/PP)/N"


def test_bootstrap_oov_candidates(lex):
    toks = tokenize("pack the daxy shape into the box", lex)
    derivs = parse(toks, lex, k=50)
    # only the modifier category lets the whole sentence parse
    cats = {category_to_str(d.oov_assignments[0].category) for d in derivs}
    assert cats == {"N/N"}
    best = derivs[0].oov_assignments[0]
    assert ccg.instantiate_template(best.template, "daxy") == \
        parse_template(r"\x.filter(x, daxy)")


def test_two_oov_words(lex):
    toks = tokenize("pack the disc in the purple box", lex)
    assert "disc" not in lex.vocabulary and "purple" not in lex.vocabulary
    top = parse(toks, lex, k=1)[0]
    assert dsl.serialize(top.program) == \
        "do(goal(filter(disc), filter(filter(box), purple), in), pack)"
    assert len(top.oov_assignments) == 2


def test_three_oov_words_no_parse(lex):
    with pytest.raises(NoParse):
        parse(tokenize("vorp the gorp into the blick box", lex), lex, k=1)


def test_too_many_tokens_is_no_parse_at_once(lex):
    """A chart cell keeps every bracketing of a coordination, so a long one
    would take seconds to minutes; past MAX_TOKENS parse refuses it."""
    toks = tokenize("pack the star" + " and the star" * 9 + " in the box", lex)
    assert len(toks) == ccg.MAX_TOKENS + 1
    start = time.perf_counter()
    with pytest.raises(NoParse):
        parse(toks, lex, k=1)
    assert time.perf_counter() - start < 0.1


# Under MAX_TOKENS, but their charts grow about 4x per conjunct or link.
CHART_BLOW_UPS = (
    "pack star" + " and star" * 9 + " in box",  # 10 conjuncts, 22 tokens
    "pack star" + " left of ring" * 8 + " in box",  # 8-link relation chain, 28 tokens
)


@pytest.mark.parametrize("sentence", CHART_BLOW_UPS)
def test_chart_bound_refuses_exponential_charts(sentence, lex):
    toks = tokenize(sentence, lex)
    assert len(toks) <= ccg.MAX_TOKENS
    with pytest.raises(NoParse):
        parse(toks, lex, k=1)


def test_chart_bound_counts_items_over_all_cells(lex, monkeypatch):
    """The largest chart of any generated instruction holds 75 items, leaves
    included: on a fresh lexicon it parses under a bound of 75 and not under 74."""
    toks = tokenize("pack the letter-l into the brown box right of the diamond left of "
                    "the hexagon", lex)
    want = parse(toks, default_lexicon(), k=3)
    monkeypatch.setattr(ccg, "MAX_CHART_ITEMS", 75)
    assert parse(toks, default_lexicon(), k=3) == want
    monkeypatch.setattr(ccg, "MAX_CHART_ITEMS", 74)
    with pytest.raises(NoParse):
        parse(toks, default_lexicon(), k=3)
    # With its chart kept by a warm lexicon, the same bound refuses it.
    warm = default_lexicon()
    monkeypatch.setattr(ccg, "MAX_CHART_ITEMS", 75)
    assert parse(toks, warm, k=3) == want
    assert parse(toks, warm, k=3) == want
    monkeypatch.setattr(ccg, "MAX_CHART_ITEMS", 74)
    with pytest.raises(NoParse):
        parse(toks, warm, k=3)
    # A refused parse keeps nothing, so it is refused again, and parses once the bound allows.
    cold = default_lexicon()
    with pytest.raises(NoParse):
        parse(toks, cold, k=3)
    assert cold.charts == {}
    with pytest.raises(NoParse):
        parse(toks, cold, k=3)
    assert cold.charts == {}
    assert list(warm.charts) == [shape_key(toks, warm)]
    assert warm.charts[shape_key(toks, warm)][1] == 75
    monkeypatch.setattr(ccg, "MAX_CHART_ITEMS", 75)
    assert parse(toks, cold, k=3) == want
    assert cold.charts == warm.charts


def test_a_warm_memo_never_refuses_the_leaves(monkeypatch):
    """Leaves are never refused, as when they are built: under a bound of 0
    a one-word sentence parses from a fresh memo and again from the warm one."""
    lexicon = Lexicon.from_string("go\tS\tdo(goal(scene(), scene(), in), pack)\n")
    monkeypatch.setattr(ccg, "MAX_CHART_ITEMS", 0)
    first = parse(["go"], lexicon)
    assert lexicon.charts
    assert parse(["go"], lexicon) == first
    assert dsl.serialize(first[0].program) == "do(goal(scene(), scene(), in), pack)"


@pytest.mark.parametrize("weights", [(1, 3), (3, 1)])
def test_chart_keeps_the_best_score_of_a_repeated_item(weights):
    """red big block is one N item reached by two splits: red applied to big
    block, and red big applied to block. Whichever split scores higher, the
    cell holds that item once, with the higher score, first or not."""
    modifier, higher_order = weights
    lexicon = Lexicon.from_string(
        "big\tN/N\t\\x.filter(x, big)\n"
        f"red\tN/N\t\\x.filter(x, red)\t{modifier}\n"
        f"red\t(N/N)/(N/N)\t\\f.\\x.filter(f(x), red)\t{higher_order}\n"
        "block\tN\tfilter(block)\n"
        "pack\tS/N\t\\o.do(goal(o, scene(), in), pack)\n")
    derivs = parse(["pack", "red", "big", "block"], lexicon, k=10)
    assert [dsl.serialize(d.program) for d in derivs] == \
        ["do(goal(filter(filter(filter(block), big), red), scene(), in), pack)"]
    assert derivs[0].log_score == math.log(3)


def _parse_outcome(tokens, lexicon, k):
    try:
        return parse(tokens, lexicon, k=k)
    except NoParse as exc:
        return exc.tokens


GENERATED = sorted({generate_episode(TaskSpec(name, split), seed).instruction
                    for name in TASK_NAMES for split in ("seen", "unseen")
                    for seed in range(3)})


@st.composite
def memo_sentences(draw, lexicon):
    """Token lists: a generated instruction (mostly), one with one or two of
    its tokens replaced by novel words, or a sentence the chart bound refuses."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return tokenize(draw(st.sampled_from(CHART_BLOW_UPS)), lexicon)
    toks = tokenize(draw(st.sampled_from(GENERATED)), lexicon)
    if kind < 5:
        for i in draw(st.lists(st.integers(0, len(toks) - 1), min_size=1, max_size=2,
                               unique=True)):
            toks[i] = draw(st.sampled_from(("blicket", "daxy")))
    return toks


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_shared_cells_give_the_fresh_parse(lex, data):
    """Over any sequence of sentences, parses with one lexicon, which read and
    fill its chart memo, return (or refuse) exactly what a fresh lexicon does."""
    fresh = functools.cache(lambda toks, k: _parse_outcome(toks, default_lexicon(), k))
    shared = default_lexicon()
    for _ in range(data.draw(st.integers(1, 6))):
        toks = data.draw(memo_sentences(lex))
        k = data.draw(st.sampled_from((1, 3)))
        assert _parse_outcome(toks, shared, k) == fresh(tuple(toks), k), toks


def test_lexicon_words_tokenize_to_themselves(lex):
    """A lexicon word is tokens joined by single spaces, so tokenize can
    produce it; test_cli checks that other words are rejected."""
    lex2 = Lexicon.from_string("porcelain plate\tN\tfilter(plate)\n3d\tN/N\t\\x.x\n")
    for lexicon in (lex, lex2):
        for word in lexicon.vocabulary:
            assert tokenize(word, lexicon) == [word]


def test_oov_combinations_never_truncated(lex):
    """The default lexicon has no more readings for a novel word than
    MAX_OOV_READINGS, so parse never drops one."""
    prior = semantic_prior(lex)
    assert len(lex.readings) == sum(len(dist) for dist in prior.values()) == 8
    assert len(lex.readings) <= ccg.MAX_OOV_READINGS


def test_readings_keep_the_first_64_of_more():
    """70 entries with distinct fixed concepts give 70 equally likely
    readings; readings keeps the first MAX_OOV_READINGS (64) in its order,
    by prior and then text, so filter(c1) is followed by filter(c10)."""
    lexicon = Lexicon.from_string("".join(f"a{k}\tN\tfilter(c{k})\n" for k in range(70)))
    assert sum(len(dist) for dist in semantic_prior(lexicon).values()) == 70
    texts = [dsl.serialize(tmpl) for _, tmpl, _ in lexicon.readings]
    assert len(texts) == 64
    assert texts[:3] == ["filter(c0)", "filter(c1)", "filter(c10)"]
    assert texts == sorted(f"filter(c{k})" for k in range(70))[:64]
    assert {cat for cat, _, _ in lexicon.readings} == {ccg.N}


def test_lexicon_prior_built_once(monkeypatch):
    calls = []

    def counting_prior(lexicon):
        calls.append(lexicon)
        return semantic_prior(lexicon)

    monkeypatch.setattr(ccg, "semantic_prior", counting_prior)
    lex = default_lexicon()
    for sentence in ("pack the blicket in the brown box", "put the daxy block in the wug bowl"):
        parse(tokenize(sentence, lex), lex, k=1)
    assert lex.readings is lex.readings
    assert calls == [lex]


def test_readings_ranked_by_prior_then_text(lex):
    keys = [(-logp, f"{category_to_str(cat)} {dsl.serialize(tmpl)}")
            for cat, tmpl, logp in lex.readings]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def full_key_sort(roots) -> list[ccg.Derivation]:
    """Every S root as a derivation, sorted on the whole key: descending log
    score, then program text, then assignment descriptions."""
    derivs = [ccg.Derivation(sem, logp, oov) for cat, sem, logp, oov in roots if cat == ccg.S]
    return sorted(derivs, key=lambda d: (-d.log_score, dsl.serialize(d.program),
                                         tuple(a.describe() for a in d.oov_assignments)))


def word_leaves(lexicon, extra):
    """Leaves keyed by the words themselves, independent of parse's word
    classes: a token's own entries, and extra's novel-word assignments."""
    def lookup(token):
        return ([(e.category, e.template, math.log(e.weight), ())
                 for e in lexicon.entries_for(token)]
                + [(a.category, ccg.instantiate_template(a.template, token), a.log_prior, (a,))
                   for a in extra.get(token, ())])

    return lookup


def reference_parse(tokens, lexicon, k):
    """parse with one CKY chart per joint reading of the unknown words, the
    way it worked before all candidates shared one chart."""
    tokens = list(tokens)
    unknown = [t for t in dict.fromkeys(tokens) if not lexicon.entries_for(t)]
    if len(unknown) > ccg.MAX_JOINT_OOV:
        raise NoParse(tokens)
    roots = []
    for combo in itertools.product(lexicon.readings, repeat=len(unknown)):
        extra = {w: [ccg.OovAssignment(w, *r)] for w, r in zip(unknown, combo)}
        roots.extend(ccg._chart_roots(tokens, word_leaves(lexicon, extra))[0])
    derivs = full_key_sort(roots)
    if not derivs:
        raise NoParse(tokens)
    return derivs[:k]


def test_shared_chart_matches_per_combo_charts_on_episodes(lex):
    instructions = {
        generate_episode(TaskSpec(name, split), seed).instruction
        for name in TASK_NAMES for split in ("seen", "unseen") for seed in range(3)
    }
    oov_counts = set()
    for text in sorted(instructions):
        toks = tokenize(text, lex)
        oov_counts.add(sum(not lex.entries_for(t) for t in set(toks)))
        assert parse(toks, lex, k=50) == reference_parse(toks, lex, k=50), text
    assert oov_counts == {0, 1, 2}


def test_repeated_oov_word_keeps_one_assignment(lex):
    toks = tokenize("put the daxy block in the daxy bowl", lex)
    derivs = parse(toks, lex, k=50)
    assert derivs == reference_parse(toks, lex, k=50)
    for d in derivs:
        assert len(d.oov_assignments) == 2
        assert d.oov_assignments[0] == d.oov_assignments[1]


def test_shared_chart_matches_per_combo_charts_when_truncated(lex, monkeypatch):
    toks = tokenize("put the pink blocks in a cyan bowl", lex)
    full = parse(toks, lex, k=50)
    # readings is cached per lexicon, so the cut applies to a fresh one only.
    monkeypatch.setattr(ccg, "MAX_OOV_READINGS", len(lex.readings) - 1)
    fresh = default_lexicon()
    assert fresh.readings == lex.readings[:-1]
    derivs = parse(toks, fresh, k=50)
    assert derivs == reference_parse(toks, fresh, k=50)
    assert 0 < len(derivs) < len(full)


# Entries whose abstract templates the default lexicon lacks, so each one
# adds a reading for novel words: with all six there are 14.
EXTRA_ENTRIES = (
    "it\tN\tscene()",
    "beside\t(N\\N)/N\t\\y.\\x.relate(x, y, left)",
    "inside\tPP/N\t\\y.\\x.goal(x, y, in)",
    "shiny\tN/N\t\\x.filter(filter(x, shiny), red)",
    "stack\t(S/PP)/N\t\\o.\\p.do(p(o), pack)",
    "both\tN\tobjunion(filter(red), filter(blue))",
)
DEFAULT_LEXICON_TEXT = (Path(ccg.__file__).parent / "data" / "lexicon.txt").read_text()
SEEN_INSTRUCTIONS = sorted({generate_episode(TaskSpec(name), seed).instruction
                            for name in TASK_NAMES for seed in range(2)})


def extended_lexicon(extra_lines, weights=None) -> Lexicon:
    weights = weights or [1.0] * len(extra_lines)
    text = "".join(f"{line}\t{w}\n" for line, w in zip(extra_lines, weights))
    return Lexicon.from_string(DEFAULT_LEXICON_TEXT + text)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_shared_chart_matches_per_combo_charts_with_more_readings(data):
    """With 9 to 14 readings, the shared chart still equals one chart per
    joint reading, for one or two novel words, the same word repeated or not."""
    extra = data.draw(st.lists(st.sampled_from(EXTRA_ENTRIES), min_size=1, max_size=6,
                               unique=True))
    weights = data.draw(st.lists(st.sampled_from((0.5, 1.0, 2.0, 3.0)),
                                 min_size=len(extra), max_size=len(extra)))
    lexicon = extended_lexicon(extra, weights)
    assert len(lexicon.readings) == 8 + len(extra)
    toks = tokenize(data.draw(st.sampled_from(SEEN_INSTRUCTIONS)), lexicon)
    positions = data.draw(st.lists(st.integers(0, len(toks) - 1), min_size=1, max_size=2,
                                   unique=True))
    for i in positions:
        toks[i] = data.draw(st.sampled_from(("blicket", "daxy")))
    try:
        expected = reference_parse(toks, lexicon, k=10**6)
    except NoParse:
        with pytest.raises(NoParse):
            parse(toks, lexicon, k=10**6)
        return
    assert parse(toks, lexicon, k=10**6) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_top_k_roots_match_the_full_key_sort(data):
    """Ranking by score and serializing only the roots tied with the k-th
    best score gives the full-key sort's first k, over random lexicons whose
    few distinct weights tie many roots."""
    extra = data.draw(st.lists(st.sampled_from(EXTRA_ENTRIES), max_size=6, unique=True))
    weights = data.draw(st.lists(st.sampled_from((0.5, 1.0, 2.0)),
                                 min_size=len(extra), max_size=len(extra)))
    lexicon = extended_lexicon(extra, weights)
    toks = tokenize(data.draw(st.sampled_from(SEEN_INSTRUCTIONS)), lexicon)
    for i in data.draw(st.lists(st.integers(0, len(toks) - 1), max_size=2, unique=True)):
        toks[i] = data.draw(st.sampled_from(("blicket", "daxy")))
    unknown = [t for t in dict.fromkeys(toks) if not lexicon.entries_for(t)]
    extra_leaves = {w: [ccg.OovAssignment(w, *r) for r in lexicon.readings] for w in unknown}
    try:
        roots = ccg._chart_roots(toks, word_leaves(lexicon, extra_leaves))[0]
    except NoParse:
        return
    expected = full_key_sort(roots)
    k = data.draw(st.integers(1, len(expected) + 2))
    assert ccg._derivations_from_roots(roots, k, dict(zip(toks, toks))) == expected[:k]


def per_sentence_rule_parse(tokens, lexicon):
    """parse under the earlier bound on novel words: all joint assignments
    of the unknown words ranked by summed log prior, then by their text, and
    cut to the best 64, each parsed in its own chart."""
    unknown = [t for t in dict.fromkeys(tokens) if not lexicon.entries_for(t)]
    per_word = [[ccg.OovAssignment(w, cat, tmpl, logp)
                 for cat, tmpl, logp in lexicon.readings] for w in unknown]
    combos = sorted(
        itertools.product(*per_word),
        key=lambda combo: (-sum(c.log_prior for c in combo),
                           tuple(c.describe() for c in combo)),
    )[:64]
    roots = []
    for combo in combos:
        extra = {c.word: [c] for c in combo}
        roots.extend(ccg._chart_roots(tokens, word_leaves(lexicon, extra))[0])
    return full_key_sort(roots), {frozenset(c) for c in combos}


def test_more_readings_parse_a_superset_of_the_top_joint_assignments():
    """With 14 readings there are 196 joint readings of two novel words. The
    earlier rule kept the best 64 of them; filtered to those, the output is
    exactly what that rule gave, and the pairings it dropped add parses."""
    lexicon = extended_lexicon(EXTRA_ENTRIES)
    assert len(lexicon.readings) == 14
    toks = tokenize("pack the blicket in the daxy box", lexicon)
    derivs = parse(toks, lexicon, k=10**6)
    expected, kept = per_sentence_rule_parse(toks, lexicon)
    assert [d for d in derivs if frozenset(d.oov_assignments) in kept] == expected
    assert len(expected) < len(derivs)


def shape_key(tokens, lexicon) -> tuple[tuple[int | None, int], ...]:
    """The memo key of the whole sentence: its tokens' classes and ranks."""
    return lexicon.shape(tokens)


def test_shape_ranks_any_number_of_words_of_one_class(lex):
    """A shape is defined past MAX_TOKENS distinct words of one class; parse
    refuses such a sentence for its length, not its shape."""
    words = [f"w{i}" for i in range(ccg.MAX_TOKENS + 1)]
    assert lex.shape(words) == tuple((None, i) for i in range(len(words)))
    assert lex.shape(["red", "blue", "red"]) == ((lex.classes["red"], 0),
                                                 (lex.classes["red"], 1), (lex.classes["red"], 0))


def test_a_parsed_shape_adds_no_cell_and_applies_nothing(lex, monkeypatch):
    """Words of one class share their chart: after one sentence, a sentence
    that differs from it only by words of the same classes adds no memo
    entry and combines nothing, and it parses as it does alone."""
    applied = []
    apply_sem = ccg.apply_sem
    monkeypatch.setattr(ccg, "apply_sem", lambda fn, arg: applied.append(fn) or apply_sem(fn, arg))
    lexicon = default_lexicon()
    first = tokenize("pack the red block in the blue box", lexicon)
    parse(first, lexicon, k=3)
    assert applied
    built, applied[:] = dict(lexicon.charts), []
    toks = tokenize("pack the green ring in the brown box", lexicon)
    assert shape_key(toks, lexicon) == shape_key(first, lexicon)
    got = parse(toks, lexicon, k=3)
    assert lexicon.charts == built
    assert applied == []
    assert got == parse(toks, default_lexicon(), k=3)
    assert dsl.serialize(got[0].program) == \
        "do(goal(filter(filter(ring), green), filter(filter(box), brown), in), pack)"


@pytest.mark.parametrize("split", ["seen", "unseen"])
def test_a_window_of_instructions_builds_nine_shapes(lex, split):
    """A cost guard: the 180 instructions of seeds 0-19 (about a hundred
    distinct) come in 9 shapes, one per task, and with one lexicon only the
    first parse of each shape adds a memo entry."""
    sentences = [tokenize(generate_episode(TaskSpec(name, split), seed).instruction, lex)
                 for name in TASK_NAMES for seed in range(20)]
    assert len({tuple(toks) for toks in sentences}) > 90
    assert len({shape_key(toks, lex) for toks in sentences}) == 9
    lexicon = default_lexicon()
    grew = 0
    for toks in sentences:
        before = len(lexicon.charts)
        parse(toks, lexicon, k=1)
        grew += len(lexicon.charts) > before
    assert grew == len(lexicon.charts) == 9


def word_chart_items(tokens, lookup) -> int:
    """Items of the word-level chart summed over all its cells, leaves included."""
    return ccg._chart_roots(tokens, lookup)[1]


FIXED_CONCEPT_SENTENCES = (
    "pack the boxes in the box",
    "pack the box and the boxes in the box",
    "put the red boxes in the box left of the boxes",
    "pack the daxy boxes in the box",
    "push the boxes and the box and the daxy box into the boxes",
)


@pytest.mark.parametrize("box_entry", [True, False])
@pytest.mark.parametrize("sentence", FIXED_CONCEPT_SENTENCES)
def test_fixed_concept_words_keep_their_text(box_entry, sentence, monkeypatch):
    """"boxes" means filter(box), so box is a fixed concept word of a
    template: as a token it keeps its text (known or not), in a word class of
    its own, which keeps the renaming of a shape's chart one-to-one. With
    "and" read in both orders, "box and boxes" has two derivations that
    differ only in which word gives which filter(box), one item of the word
    chart; renaming box to another word would split it in two. Parses equal
    the word-level reference, and the chart bound refuses at the word
    chart's item count."""
    text = DEFAULT_LEXICON_TEXT if box_entry else DEFAULT_LEXICON_TEXT.replace(
        "box\tN\tfilter(box)\n", "")
    lexicon = Lexicon.from_string(text + "boxes\tN\tfilter(box)\n"
                                  "and\t(N\\N)/N\t\\y.\\x.objunion(y, x)\n")
    toks = tokenize(sentence, lexicon)
    assert [w for w, c in lexicon.classes.items() if c == lexicon.classes["box"]] == ["box"]
    derivs = parse(toks, lexicon, k=10**6)
    assert derivs == reference_parse(toks, lexicon, k=10**6)
    unknown = [t for t in dict.fromkeys(toks) if not lexicon.entries_for(t)]
    lookup = word_leaves(lexicon, {w: [ccg.OovAssignment(w, *r) for r in lexicon.readings]
                                   for w in unknown})
    items = word_chart_items(toks, lookup)
    monkeypatch.setattr(ccg, "MAX_CHART_ITEMS", items)
    assert parse(toks, lexicon, k=10**6) == derivs
    monkeypatch.setattr(ccg, "MAX_CHART_ITEMS", items - 1)
    with pytest.raises(NoParse):
        ccg._chart_roots(toks, lookup)
    with pytest.raises(NoParse) as refused:
        parse(toks, lexicon, k=10**6)
    assert refused.value.tokens == tuple(toks)


def test_semantic_prior_hand_count():
    text = (
        "red\tN/N\t\\x.filter(x, red)\n"
        "blue\tN/N\t\\x.filter(x, blue)\n"
        "green\tN/N\t\\x.filter(x, green)\n"
        "the\tN/N\t\\x.x\n"
    )
    lex2 = Lexicon.from_string(text)
    prior = semantic_prior(lex2)
    cat = parse_category("N/N")
    dist = dict((dsl.serialize(t), p) for t, p in prior[cat])
    assert dist["\\x.filter(x, <word>)"] == pytest.approx(0.75)
    assert dist["\\x.x"] == pytest.approx(0.25)


def test_semantic_prior_single_class():
    lex2 = Lexicon.from_string(
        "red\tN/N\t\\x.filter(x, red)\nblue\tN/N\t\\x.filter(x, blue)\n"
    )
    prior = semantic_prior(lex2)
    (tmpl, p), = prior[parse_category("N/N")]
    assert p == 1.0
    assert dsl.serialize(tmpl) == "\\x.filter(x, <word>)"


def test_semantic_prior_normalized(lex):
    prior = semantic_prior(lex)
    for cat, dist in prior.items():
        assert abs(sum(p for _, p in dist) - 1.0) < 1e-9


def test_prior_respects_weights():
    text = (
        "red\tN/N\t\\x.filter(x, red)\t3.0\n"
        "the\tN/N\t\\x.x\t1.0\n"
    )
    prior = semantic_prior(Lexicon.from_string(text))
    dist = {dsl.serialize(t): p for t, p in prior[parse_category("N/N")]}
    assert dist["\\x.filter(x, <word>)"] == pytest.approx(0.75)


def test_tokenize_strips_punctuation(lex):
    assert tokenize("Pack the Blue hexagon, in the box!", lex) == \
        ["pack", "the", "blue", "hexagon", "in", "the", "box"]


def test_tokenize_multiword_join():
    lex2 = Lexicon.from_string(
        "porcelain plate\tN\tfilter(plate)\npack\t(S/PP)/N\t\\o.\\p.do(p(o), pack)\n"
    )
    assert tokenize("pack the porcelain plate", lex2) == \
        ["pack", "the", "porcelain plate"]


def test_modifier_substitution_property(lex):
    """Replacing one in-vocabulary modifier with a novel word keeps the
    program identical up to the substituted concept word."""
    rng = np.random.default_rng(9)
    sentences = [
        ("pack the blue hexagon in the orange box", "blue"),
        ("push the pile of red blocks into the green square", "red"),
        ("push the green ring into the left blue square", "green"),
        ("put the yellow blocks in a gray bowl", "yellow"),
        ("pack the flower into the left brown box", "left"),
    ]
    for _ in range(30):
        sentence, word = sentences[int(rng.integers(len(sentences)))]
        novel = "zorp" + "abcdefgh"[int(rng.integers(8))]
        original = parse(tokenize(sentence, lex), lex, k=1)[0].program
        swapped_sentence = sentence.replace(word, novel)
        swapped = parse(tokenize(swapped_sentence, lex), lex, k=1)[0].program
        expected = dsl.serialize(original).replace(word, novel)
        assert dsl.serialize(swapped) == expected


def test_lexicon_weight_must_be_positive():
    with pytest.raises(LexiconError):
        Lexicon.from_string("red\tN/N\t\\x.filter(x, red)\t0\n")


def test_apply_sem_leaves_no_cyclic_garbage():
    """A verb's chart path: its object, then its goal, whose application
    turns p(o) into a redex and reduces it."""
    verb = parse_template(r"\o.\p.do(p(o), pack)")
    obj = parse_template("filter(hexagon)")
    goal = parse_template(r"\x.goal(x, filter(box), in)")
    gc.disable()
    try:
        gc.collect()
        result = ccg.apply_sem(ccg.apply_sem(verb, obj), goal)
        assert dsl.serialize(result) == "do(goal(filter(hexagon), filter(box), in), pack)"
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_redex_under_binder_shifts_open_argument():
    """(\\p.\\z.p(z))(\\y.\\z.relate(z, y, left)) creates the redex
    (\\y.\\z.relate(z, y, left))(z) under a binder: the argument z crosses the
    inner binder, so it must not be captured by it."""
    fn = dsl.Lam(dsl.Lam(dsl.App(dsl.Var(1), dsl.Var(0))))
    arg = dsl.Lam(dsl.Lam(dsl.Relate(dsl.Var(0), dsl.Var(1),
                                     dsl.ConceptToken("left", dsl.RELATION))))
    assert dsl.serialize(ccg.apply_sem(fn, arg)) == "\\x.\\y.relate(y, x, left)"


def test_apply_sem_never_walks_its_argument(monkeypatch):
    """A function that uses its variable first-order gets its argument as
    is: no node of the argument tree reaches _rebuilt, however deep it is,
    so such a chart item costs its template's size, not its span's."""
    blue = parse_template(r"\x.filter(x, blue)")
    arg = dsl.Scene()
    for depth in range(60):
        red = dsl.Filter(dsl.Scene(), dsl.ConceptToken("red", dsl.PROPERTY))
        arg = dsl.ObjUnion(arg, red) if depth % 2 else dsl.Filter(arg, red.prop)
    nodes = set()
    stack = [arg]
    while stack:
        node = stack.pop()
        nodes.add(id(node))
        stack.extend(v for v in vars(node).values() if isinstance(v, dsl.ProgramNode))
    seen = []
    rebuilt = ccg._rebuilt

    def recording(node, values):
        seen.append(id(node))
        return rebuilt(node, values)

    monkeypatch.setattr(ccg, "_rebuilt", recording)
    result = ccg.apply_sem(blue, arg)
    assert result == dsl.Filter(arg, dsl.ConceptToken("blue", dsl.PROPERTY))
    assert result.child is arg
    assert seen and not nodes.intersection(seen)


# --------------------------------------------------------------------------
# Reference beta reduction over named binders, with capture-avoiding
# substitution, on random well-typed templates


@dataclass(frozen=True)
class NVar(dsl.ProgramNode):
    name: str


@dataclass(frozen=True)
class NLam(dsl.ProgramNode):
    param: str
    body: dsl.ProgramNode


@dataclass(frozen=True)
class NApp(dsl.ProgramNode):
    fn: dsl.ProgramNode
    arg: dsl.ProgramNode


def named_free_vars(term) -> set[str]:
    if isinstance(term, NVar):
        return {term.name}
    if isinstance(term, NLam):
        return named_free_vars(term.body) - {term.param}
    out: set[str] = set()
    for value in vars(term).values():
        if isinstance(value, dsl.ProgramNode):
            out |= named_free_vars(value)
    return out


def named_subst(term, name: str, value):
    if isinstance(term, NVar):
        return value if term.name == name else term
    if isinstance(term, NLam):
        if term.param == name:
            return term
        if term.param in named_free_vars(value):
            fresh = term.param
            taken = named_free_vars(value) | named_free_vars(term.body)
            while fresh in taken:
                fresh += "'"
            body = named_subst(term.body, term.param, NVar(fresh))
            return NLam(fresh, named_subst(body, name, value))
        return NLam(term.param, named_subst(term.body, name, value))
    if isinstance(term, dsl.ProgramNode):
        return type(term)(*[named_subst(v, name, value) for v in vars(term).values()])
    return term


def named_beta_normalize(term):
    if isinstance(term, NApp):
        fn = named_beta_normalize(term.fn)
        arg = named_beta_normalize(term.arg)
        if isinstance(fn, NLam):
            return named_beta_normalize(named_subst(fn.body, fn.param, arg))
        return NApp(fn, arg)
    if isinstance(term, NLam):
        return NLam(term.param, named_beta_normalize(term.body))
    if isinstance(term, dsl.ProgramNode) and type(term) is not NVar:
        return type(term)(*map(named_beta_normalize, vars(term).values()))
    return term


def nameless(term, bound=()):
    """The dsl term of a named one; bound lists the binders innermost first."""
    if isinstance(term, NVar):
        return dsl.Var(bound.index(term.name))
    if isinstance(term, NLam):
        return dsl.Lam(nameless(term.body, (term.param,) + bound))
    if isinstance(term, NApp):
        return dsl.App(nameless(term.fn, bound), nameless(term.arg, bound))
    if isinstance(term, dsl.ProgramNode):
        return type(term)(*[nameless(v, bound) for v in vars(term).values()])
    return term


_O, _G, _P = dsl.SemanticType.OBJECT, dsl.SemanticType.GOAL, dsl.SemanticType.PLAN
# Types of binders and arguments; a pair (a, b) is a function type, nested
# pairs in argument position make higher-order arguments. Object is drawn
# twice as often, so that variables more often fit where they are drawn.
TYPES = st.recursive(st.sampled_from((_O, _O, _G, _P)), lambda t: st.tuples(t, t), max_leaves=4)
# Few names, so binders often shadow one another.
NAMES = st.sampled_from("xyz")


def _results(ty):
    """ty and the type of each partial application of a function of type ty."""
    yield ty
    while isinstance(ty, tuple):
        ty = ty[1]
        yield ty


def _token(draw, kind):
    return dsl.ConceptToken(draw(st.sampled_from(("red", "box", "left", "in", "pack"))), kind)


@st.composite
def named_term(draw, ty, ctx=(), budget=3):
    """A random named term of type ty whose free variables are the (name,
    type) pairs of ctx, innermost first: operations, variables applied to
    arguments, binders, and redexes with arguments of random type. budget
    bounds the nesting of operations, applications and redexes."""
    visible = {}
    for name, var_ty in ctx:
        visible.setdefault(name, var_ty)
    heads = [name for name, var_ty in visible.items()
             if (ty in _results(var_ty) if budget else ty == var_ty)]
    # Variables are drawn twice as often: redexes matter where they occur.
    choice = draw(st.sampled_from(
        ["lam" if isinstance(ty, tuple) else "op"] + ["var"] * 2 * bool(heads)
        + ["redex"] * (budget > 0)))
    if choice == "lam":
        name = draw(NAMES)
        return NLam(name, draw(named_term(ty[1], ((name, ty[0]),) + ctx, budget)))
    if choice == "redex":
        arg_ty = draw(TYPES)
        name = draw(NAMES)
        body = draw(named_term(ty, ((name, arg_ty),) + ctx, budget - 1))
        return NApp(NLam(name, body), draw(named_term(arg_ty, ctx, budget - 1)))
    if choice == "var":
        name = draw(st.sampled_from(heads))
        node, var_ty = NVar(name), visible[name]
        while var_ty != ty:
            node = NApp(node, draw(named_term(var_ty[0], ctx, budget - 1)))
            var_ty = var_ty[1]
        return node
    sub = functools.partial(named_term, ctx=ctx, budget=max(budget - 1, 0))
    if ty is _O and not budget:
        if draw(st.booleans()):
            return dsl.Scene()
        return dsl.Filter(dsl.Scene(), _token(draw, dsl.PROPERTY))
    if ty is _G:
        return dsl.Goal(draw(sub(_O)), draw(sub(_O)), _token(draw, dsl.RELATION))
    if ty is _P:
        if budget and draw(st.booleans()):
            return dsl.ActionConcat(draw(sub(_P)), draw(sub(_P)))
        return dsl.Do(draw(sub(_G)), _token(draw, dsl.ACTION))
    op = draw(st.sampled_from(("scene", "filter", "relate", "objunion")))
    if op == "scene":
        return dsl.Scene()
    if op == "filter":
        return dsl.Filter(draw(sub(_O)), _token(draw, dsl.PROPERTY))
    if op == "relate":
        return dsl.Relate(draw(sub(_O)), draw(sub(_O)), _token(draw, dsl.RELATION))
    return dsl.ObjUnion(draw(sub(_O)), draw(sub(_O)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_template_is_normal(data):
    """parse_template does not normalize, so a template must be normal as
    read: a normal term's text reads back as that term, with no redex."""
    term = nameless(named_beta_normalize(data.draw(named_term(data.draw(TYPES)))))
    template = parse_template(dsl.serialize(term))
    assert template == term
    stack = [template]
    while stack:
        node = stack.pop()
        assert not (isinstance(node, dsl.App) and isinstance(node.fn, dsl.Lam))
        stack.extend(v for v in vars(node).values() if isinstance(v, dsl.ProgramNode))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_apply_sem_matches_named_reference(data):
    """apply_sem under outer binders ctx. An argument typed like a variable of
    ctx is often open, and a function-typed body puts binders between the
    argument and its uses, so the argument must be shifted over them. The
    argument is normal, as every chart item is: apply_sem does not
    normalize it again. The body may hold redexes of its own."""
    ctx = tuple(data.draw(st.lists(st.tuples(NAMES, TYPES), min_size=1, max_size=3)))
    arg_ty = data.draw(st.sampled_from([ty for _, ty in ctx]))
    result_ty, name = data.draw(st.tuples(TYPES, TYPES)), data.draw(NAMES)
    fn = NLam(name, data.draw(named_term(result_ty, ((name, arg_ty),) + ctx)))
    arg = data.draw(named_term(arg_ty, ctx))
    bound = tuple(name for name, _ in ctx)

    def closed(term):
        return functools.reduce(lambda body, _: dsl.Lam(body), bound, term)

    expected = dsl.serialize(closed(nameless(named_beta_normalize(NApp(fn, arg)), bound)))
    got = ccg.apply_sem(nameless(fn, bound), nameless(named_beta_normalize(arg), bound))
    assert dsl.serialize(closed(got)) == expected


# Categories of the entries a random lexicon adds (modifiers, relations,
# prepositions, verbs, and higher-order ones the default lexicon lacks), and
# their words: a new one, and words common in generated instructions, so
# that the entries join most charts.
RANDOM_ENTRY_CATEGORIES = ("N/N", "(N\\N)/N", "PP/N", "(S/PP)/N", "N/(N/N)", "(N/N)/(N/N)")
RANDOM_ENTRY_WORDS = ("fep", "the", "into", "pack", "brown", "of")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_lexicon_charts_are_typed_by_construction(data):
    """parse checks no type: a template is checked against its category when
    its entry loads, and application needs matching categories. So with 1-4
    random well-typed entries added, and 0-2 words of a generated instruction
    replaced by theirs or by novel words, every derivation is a plan and
    every chart item of a Complex category is a Lam: each leaf, an entry or
    a novel-word reading, and each result of a combination."""
    lines = []
    for _ in range(data.draw(st.integers(1, 4))):
        cat = data.draw(st.sampled_from(RANDOM_ENTRY_CATEGORIES))
        term = data.draw(named_term(ccg.category_sem_type(parse_category(cat))))
        template = dsl.serialize(nameless(named_beta_normalize(term)))
        lines.append(f"{data.draw(st.sampled_from(RANDOM_ENTRY_WORDS))}\t{cat}\t{template}")
    lexicon = extended_lexicon(lines)
    combined = []
    combinations = ccg._combinations

    def recording(left, right):
        results = combinations(left, right)
        combined.extend(results)
        return results

    with mock.patch.object(ccg, "_combinations", recording):
        for _ in range(data.draw(st.integers(1, 3))):
            toks = tokenize(data.draw(st.sampled_from(GENERATED)), lexicon)
            for i in data.draw(st.lists(st.integers(0, len(toks) - 1), max_size=2, unique=True)):
                toks[i] = data.draw(st.sampled_from(("fep", "blicket", "daxy")))
            try:
                derivs = parse(toks, lexicon, k=10**6)
            except NoParse:
                derivs = []
            for d in derivs:
                assert dsl.type_check(d.program) is dsl.SemanticType.PLAN
    leaves = [(e.category, e.template) for w in lexicon.vocabulary for e in lexicon.entries_for(w)]
    for cat, sem in leaves + [(cat, tmpl) for cat, tmpl, _ in lexicon.readings] + combined:
        assert not isinstance(cat, Complex) or isinstance(sem, dsl.Lam)
