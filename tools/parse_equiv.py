"""Parse outcome hashes of one tree, or a base revision's against the working tree's.

Without --base, prints one JSON line for the tablang on the import path: the
file it was imported from, and {sentence: SHA-256 of its parse outcomes}.
With --base REV, unpacks REV (``ab_bench.unpack``) into a temporary
directory and runs this script once per tree, REV's and the working tree's,
each in its own subprocess with PYTHONPATH set to that tree's ``src``. It
prints every sentence whose outcomes differ, or that only one tree parsed,
and exits 1 if there is any.

    python3 tools/parse_equiv.py --base HEAD~1
    PYTHONPATH=src python3 tools/parse_equiv.py --quick

The sentences, in this order: the 215 distinct generated instructions of
seeds 0-19 on both splits; each of them with each token in turn replaced by
a novel word; coordinations of 2-10 conjuncts and relation chains of 1-7
links, whose charts reach MAX_CHART_ITEMS and whose tokens reach MAX_TOKENS.
Then FIXED_CONCEPT_SENTENCES and their novel-word variants on each lexicon
of FIXED_CONCEPT_LEXICONS, keyed with the lexicon's name: there box is a
fixed concept word of a template, which gives it a word class of its own.
Each sentence is parsed at each k in KS, on a fresh lexicon and then again on
one warm lexicon that every sentence before it on that lexicon has filled.
An outcome is each derivation's program text, log score and novel-word
descriptions, or NoParse. --quick takes the first three instructions of
seed 0, 2-3 conjuncts, 1-2 links, and the first two fixed-concept
sentences, each with its novel-word variants.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KS = (1, 3, 10**6)
NOVEL = "blicket"
SHAPES = ("ring", "star", "diamond")
FIXED_CONCEPT_SENTENCES = (
    "pack the boxes in the box",
    "pack the box and the boxes in the box",
    "put the red boxes in the box left of the boxes",
    "pack the daxy boxes in the box",
    "push the boxes and the box and the daxy box into the boxes",
)
# The lexicons of test_ccg's fixed-concept test, as (line dropped from, lines
# added to) the default lexicon. boxes holds box as a fixed concept word, and
# "and" also reads in reverse, so "box and boxes" has two derivations that
# differ only in which word gives which filter(box). Without its entry, box is
# an unknown word that is still fixed.
BOXES = "boxes\tN\tfilter(box)\nand\t(N\\N)/N\t\\y.\\x.objunion(y, x)\n"
FIXED_CONCEPT_LEXICONS = {"boxes": ("", BOXES), "unknown box": ("box\tN\tfilter(box)\n", BOXES)}


def novel_variants(generated: list[list[str]]) -> list[list[str]]:
    """Each sentence with each token in turn replaced by a novel word."""
    return [toks[:i] + [NOVEL] + toks[i + 1:] for toks in generated for i in range(len(toks))]


def sentences(quick: bool) -> list[tuple[str, ...]]:
    from tablang import ccg
    from tablang.benchmark import TASK_NAMES, TaskSpec, generate_episode

    lexicon = ccg.default_lexicon()
    texts = sorted({generate_episode(TaskSpec(name, split), seed).instruction
                    for name in TASK_NAMES for split in ("seen", "unseen")
                    for seed in range(1 if quick else 20)})
    generated = [ccg.tokenize(text, lexicon) for text in texts[:3 if quick else None]]
    novel = novel_variants(generated)
    conjuncts = [" and the ".join(SHAPES[i % 3] for i in range(n))
                 for n in range(2, 4 if quick else 11)]
    coordinations = [f"pack the {c} in the box".split() for c in conjuncts]
    links = ["".join(f" {('left', 'right')[i % 2]} of the {SHAPES[i % 3]}" for i in range(n))
             for n in range(1, 3 if quick else 8)]
    chains = [f"pack the star into the box{chain}".split() for chain in links]
    return list(dict.fromkeys(map(tuple, generated + novel + coordinations + chains)))


def fixed_concept_lexicon(name: str):
    """A fresh lexicon of FIXED_CONCEPT_LEXICONS."""
    from importlib.resources import files

    from tablang import ccg

    dropped, added = FIXED_CONCEPT_LEXICONS[name]
    text = files("tablang").joinpath("data/lexicon.txt").read_text()
    return ccg.Lexicon.from_string(text.replace(dropped, "", 1) + added)


def fixed_concept_sentences(quick: bool) -> list[tuple[str, ...]]:
    generated = [text.split() for text in FIXED_CONCEPT_SENTENCES[:2 if quick else None]]
    return list(dict.fromkeys(map(tuple, generated + novel_variants(generated))))


def hashes(quick: bool = False) -> dict[str, str]:
    """{sentence: SHA-256 of its outcomes at each k, fresh and then warm}."""
    from tablang import ccg, dsl

    def outcome(tokens, lexicon, k):
        try:
            derivs = ccg.parse(tokens, lexicon, k=k)
        except ccg.NoParse:
            return "NoParse"
        return [[dsl.serialize(d.program), d.log_score, [a.describe() for a in d.oov_assignments]]
                for d in derivs]

    batches = [("", ccg.default_lexicon, sentences(quick))]
    batches += [(f"{name}: ", functools.partial(fixed_concept_lexicon, name),
                 fixed_concept_sentences(quick)) for name in FIXED_CONCEPT_LEXICONS]
    out = {}
    for label, fresh, batch in batches:
        warm = fresh()
        for tokens in batch:
            outcomes = [[outcome(tokens, lexicon, k) for lexicon in (fresh(), warm)] for k in KS]
            digest = hashlib.sha256(json.dumps(outcomes).encode())
            out[label + " ".join(tokens)] = digest.hexdigest()
    return out


def mismatches(base: dict[str, str], work: dict[str, str]) -> list[str]:
    """The sentences whose hashes differ, or that only one side has."""
    return [s for s in dict.fromkeys([*base, *work]) if base.get(s) != work.get(s)]


def tree_hashes(tree: Path, quick: bool, script: Path = Path(__file__).resolve()) -> dict[str, str]:
    """The hashes that script (this one by default) prints for the tablang in
    tree/src, run in a subprocess."""
    argv = [sys.executable, str(script), *(["--quick"] if quick else [])]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout)
    if not Path(result["tablang"]).resolve().is_relative_to(tree.resolve()):
        sys.exit(f"error: {tree}'s run imported tablang from {result['tablang']}")
    return result["hashes"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="git revision to compare the working tree against")
    ap.add_argument("--quick", action="store_true", help="a few sentences, for a smoke test")
    args = ap.parse_args(argv)
    if args.base is None:
        import tablang

        print(json.dumps({"tablang": tablang.__file__, "hashes": hashes(args.quick)}))
        return 0
    from ab_bench import git, unpack

    if git("rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}").returncode != 0:
        ap.error(f"unknown revision {args.base!r}")
    with tempfile.TemporaryDirectory(prefix="parse_equiv-") as tmp:
        unpack(args.base, Path(tmp))
        base = tree_hashes(Path(tmp), args.quick)
    work = tree_hashes(ROOT, args.quick)
    bad = mismatches(base, work)
    for sentence in bad:
        print(f"mismatch: {sentence}")
    print(f"{len(work)} sentences, {len(KS)} values of k, fresh and warm lexicons: "
          f"{len(bad)} mismatches against {args.base}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
