import itertools

import numpy as np
import pytest

from tablang import ccg, dsl
from tablang.benchmark import TASK_NAMES, TaskSpec, generate_episode
from tablang.ccg import (
    Complex,
    Lexicon,
    LexiconError,
    N,
    NoParse,
    S,
    _combinations,
    category_to_str,
    default_lexicon,
    parse,
    parse_category,
    parse_template,
    semantic_prior,
    template_to_str,
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


def test_template_round_trip():
    t = parse_template(r"\x.filter(x, blue)")
    assert template_to_str(t) == "\\x.filter(x, blue)"
    t2 = parse_template(r"\y.\x.goal(x, y, in)")
    assert template_to_str(t2) == "\\x.\\y.goal(y, x, in)"


def test_template_alpha_equivalence():
    assert parse_template(r"\x.filter(x, red)") == parse_template(r"\q.filter(q, red)")


def test_lexicon_rejects_type_mismatch():
    with pytest.raises(LexiconError):
        Lexicon.from_string("bad\tN\t\\x.x\n")
    with pytest.raises(LexiconError):
        Lexicon.from_string("bad\tPP/N\t\\y.\\x.filter(x, y)\n")
    with pytest.raises(LexiconError):  # do takes exactly one goal
        Lexicon.from_string("bad\t(S/PP)/N\t\\o.\\p.do(p(o), p(o), pack)\n")


def test_combine_forward_application():
    blue = (parse_category("N/N"), parse_template(r"\x.filter(x, blue)"))
    hexagon = (N, parse_template("filter(hexagon)"))
    assert _combinations(blue, hexagon) == \
        [(N, parse_template("filter(filter(hexagon), blue)"))]


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
    assert derivs[0].root_category == S


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


def test_oov_combinations_never_truncated(lex):
    """Every joint assignment of the most unknown words parse accepts fits
    under MAX_OOV_COMBOS, so parse never drops one."""
    assert "blicket" not in lex.vocabulary
    n = len(ccg._candidates_for("blicket", lex, semantic_prior(lex)))
    assert n ** ccg.MAX_JOINT_OOV <= ccg.MAX_OOV_COMBOS


def reference_parse(tokens, lexicon, k):
    """parse with one CKY chart per kept joint OOV assignment, the way it
    worked before all candidates shared one chart."""
    tokens = list(tokens)
    unknown = [t for t in dict.fromkeys(tokens) if not lexicon.entries_for(t)]
    if len(unknown) > ccg.MAX_JOINT_OOV:
        raise NoParse(tokens)
    prior = semantic_prior(lexicon)
    per_word = [ccg._candidates_for(w, lexicon, prior) for w in unknown]
    combos = sorted(
        itertools.product(*per_word),
        key=lambda combo: (-sum(c.log_prior for c in combo),
                           tuple(c.describe() for c in combo)),
    )[:ccg.MAX_OOV_COMBOS]
    roots = []
    for combo in combos:
        lookup = ccg._lexicon_leaves(lexicon, {c.word: [c] for c in combo})
        roots.extend(ccg._chart_roots(tokens, lookup))
    derivs = ccg._derivations_from_roots(roots)
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
    n = len(ccg._candidates_for("pink", lex, semantic_prior(lex)))
    monkeypatch.setattr(ccg, "MAX_OOV_COMBOS", 58)
    assert n ** 2 > ccg.MAX_OOV_COMBOS
    derivs = parse(toks, lex, k=50)
    assert derivs == reference_parse(toks, lex, k=50)
    assert 0 < len(derivs) < len(full)


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
    dist = dict((template_to_str(t), p) for t, p in prior[cat])
    assert dist["\\x.filter(x, <word>)"] == pytest.approx(0.75)
    assert dist["\\x.x"] == pytest.approx(0.25)


def test_semantic_prior_single_class():
    lex2 = Lexicon.from_string(
        "red\tN/N\t\\x.filter(x, red)\nblue\tN/N\t\\x.filter(x, blue)\n"
    )
    prior = semantic_prior(lex2)
    (tmpl, p), = prior[parse_category("N/N")]
    assert p == 1.0
    assert template_to_str(tmpl) == "\\x.filter(x, <word>)"


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
    dist = {template_to_str(t): p for t, p in prior[parse_category("N/N")]}
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
