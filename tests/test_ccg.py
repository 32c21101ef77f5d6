import functools
import gc
import itertools
import time
from dataclasses import dataclass
from pathlib import Path

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
    for e in lex.all_entries():
        assert parse_template(dsl.serialize(e.template)) == e.template, e.word


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
        roots.extend(ccg._chart_roots(tokens, ccg._lexicon_leaves(lexicon, extra)))
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
        roots.extend(ccg._chart_roots(tokens, ccg._lexicon_leaves(lexicon, extra)))
    return ccg._derivations_from_roots(roots), {frozenset(c) for c in combos}


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


def test_beta_normalize_leaves_no_cyclic_garbage():
    term = parse_template(r"\o.\p.do(p(o), pack)")
    arg = parse_template(r"\y.\x.goal(x, y, in)")
    gc.disable()
    try:
        gc.collect()
        assert ccg.beta_normalize(ccg.App(term, arg)) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_redex_under_binder_shifts_open_argument():
    """\\z.(\\y.\\z.relate(z, y, left))(z): the argument z crosses the inner
    binder, so it must not be captured by it."""
    inner = dsl.Lam(dsl.Lam(dsl.Relate(dsl.Var(0), dsl.Var(1),
                                       dsl.ConceptToken("left", dsl.RELATION))))
    term = dsl.Lam(dsl.App(inner, dsl.Var(0)))
    assert dsl.serialize(ccg.beta_normalize(term)) == "\\x.\\y.relate(y, x, left)"


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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_beta_normalize_matches_named_reference(data):
    term = data.draw(named_term(data.draw(TYPES)))
    expected = dsl.serialize(nameless(named_beta_normalize(term)))
    assert dsl.serialize(ccg.beta_normalize(nameless(term))) == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_apply_sem_matches_named_reference(data):
    """apply_sem under outer binders ctx. An argument typed like a variable of
    ctx is often open, and a function-typed body puts binders between the
    argument and its uses, so the argument must be shifted over them."""
    ctx = tuple(data.draw(st.lists(st.tuples(NAMES, TYPES), min_size=1, max_size=3)))
    arg_ty = data.draw(st.sampled_from([ty for _, ty in ctx]))
    result_ty, name = data.draw(st.tuples(TYPES, TYPES)), data.draw(NAMES)
    fn = NLam(name, data.draw(named_term(result_ty, ((name, arg_ty),) + ctx)))
    arg = data.draw(named_term(arg_ty, ctx))
    bound = tuple(name for name, _ in ctx)

    def closed(term):
        return functools.reduce(lambda body, _: dsl.Lam(body), bound, term)

    expected = dsl.serialize(closed(nameless(named_beta_normalize(NApp(fn, arg)), bound)))
    got = ccg.apply_sem(nameless(fn, bound), nameless(arg, bound))
    assert dsl.serialize(closed(got)) == expected
