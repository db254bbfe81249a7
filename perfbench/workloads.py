"""Seeded inputs, CLI commands and output checks for each workload.

A workload is run in rounds. Every round gets freshly generated inputs
(seeded by the run seed and the round number), so that no round repeats
the forms of another and a cache kept across calls gains nothing that a
fresh CLI process would not also gain. The number of tokens in a round is
fixed by the workload and the scale, not by the seed.

Each ``generate`` writes the round's inputs under ``rdir`` and returns a
:class:`Round` holding the CLI argument lists and what the checks need.
Each ``check`` compares the outputs with values computed here, apart from
the program, and returns the number of failed operations and a list of
problems (empty when every output that did not fail is right).
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
import statistics
import unicodedata
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

from reference import ReferenceTransliterator, has_script, token_script

RULESETS = ("cyrillic_latin", "uyghur_latin", "sorani_latin", "georgian_latin")

UPOS = ("NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "PROPN", "NUM", "CCONJ", "AUX")
DEPRELS = ("nsubj", "obj", "obl", "nmod", "nmod:poss", "amod", "advmod", "det", "case",
           "conj", "cc", "compound:prt", "obl:tmod", "acl:relcl")
FEATS = ("_", "Case=Nom|Number=Sing", "Case=Gen|Number=Plur", "Tense=Past|VerbForm=Fin")
PUNCT = (",", ".", ":", "!", "?", ";")
ENTITY_TYPES = ("PER", "LOC", "ORG", "MISC")

# Stressed words: a vowel followed by U+0301, the combining acute that
# marks stress in Russian text.
# These lines are the same in every run, whatever the seed, so the share
# of failed operations they cause does not depend on the seed.
STRESSED_LINES = tuple(
    f"{w1} {w2} {n}"
    for n, (w1, w2) in enumerate(itertools.product(
        ("молоко́", "доро́га", "соба́ка", "мали́на", "карти́на"),
        ("го́род", "вода́", "бума́га", "ры́ба"),
    ))
)


@dataclass
class Round:
    """One round: the commands to time and the facts the checks need."""

    cmds: list[list[str]]
    tokens: int  # input tokens read by the commands
    ops: int  # operations attempted
    facts: dict = field(default_factory=dict)
    # forms passed to the rewrite engine, tokens parsed, lines deduplicated
    counts: dict = field(default_factory=dict)


def load_references(root: Path, names=RULESETS) -> dict[str, ReferenceTransliterator]:
    rules = root / "src" / "unseenlang" / "rules"
    return {n: ReferenceTransliterator.from_file(rules / f"{n}.rules") for n in names}


def _sized(n: int, scale: float, least: int = 1) -> int:
    return max(least, round(n * scale))


class Words:
    """High-type word maker for one ruleset's source alphabet."""

    def __init__(self, ref: ReferenceTransliterator, rng: random.Random):
        self.rng = rng
        letters = ref.letters()
        self.lower = [c for c in letters if not c.isupper()]
        # a word starts with a letter written with a Latin letter, so that
        # its transliteration is never empty nor punctuation alone
        self.first = [c for c in self.lower if any(o.isalpha() for o in ref.rules[c])]
        self.cased = any(c.isupper() for c in letters)
        # the first non-ASCII decimal digits of the rules, by value
        self.digits: dict[str, str] = {}
        for c in ref.rules:
            if len(c) == 1 and c.isdigit() and not c.isascii():
                self.digits.setdefault(str(unicodedata.digit(c)), c)

    def word(self, lo: int = 3, hi: int = 10) -> str:
        rng = self.rng
        return rng.choice(self.first) + "".join(rng.choices(self.lower, k=rng.randint(lo, hi) - 1))

    def capital(self, w: str) -> str:
        return w[0].upper() + w[1:] if self.cased else w

    def number(self) -> str:
        n = str(self.rng.randint(1, 2030))
        if self.digits and self.rng.random() < 0.5:
            n = "".join(self.digits[d] for d in n)
        return n


def _lengths(rng: random.Random, total: int, lo: int, hi: int) -> list[int]:
    """Sentence lengths summing to ``total``, each at least ``lo`` (when
    ``total`` is) and at most ``hi`` except the last, which takes the rest."""
    out = []
    while total >= lo + hi:
        out.append(rng.randint(lo, hi))
        total -= out[-1]
    return out + [total]


def _tree(rng: random.Random, n: int) -> list[int]:
    """Heads of a random dependency tree over tokens 1..n (0 is the root)."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    heads = [0] * (n + 1)
    attached = [order[0]]
    for tok in order[1:]:
        heads[tok] = rng.choice(attached)
        attached.append(tok)
    return heads[1:]


def _conllu_sentence(rng: random.Random, words: Words, n: int, sent_id: str) -> tuple[str, int]:
    """One canonical CoNLL-U sentence of ``n`` syntactic words, and the
    number of multiword-token lines in it (0 or 1)."""
    forms, lemmas, upos = [], [], []
    for i in range(n):
        r = rng.random()
        if i == n - 1 or r < 0.08:
            form = rng.choice(PUNCT)
            forms.append(form), lemmas.append(form), upos.append("PUNCT")
        elif r < 0.12:
            form = words.number()
            forms.append(form), lemmas.append(form), upos.append("NUM")
        else:
            lemma = words.word()
            form = lemma if rng.random() < 0.4 else lemma[:-1] + words.word(1, 3)
            if i == 0 or rng.random() < 0.1:
                form = words.capital(form)
            forms.append(form), lemmas.append(lemma), upos.append(rng.choice(UPOS))
    heads = _tree(rng, n)
    lines = [f"# sent_id = {sent_id}", "# text = " + " ".join(forms)]
    mwt = None
    if n >= 3 and rng.random() < 0.05:
        start = rng.randint(1, n - 2)
        if upos[start - 1] != "PUNCT" and upos[start] != "PUNCT":
            mwt = start
    for i in range(n):
        if mwt == i + 1:
            lines.append(f"{i + 1}-{i + 2}\t{forms[i]}{forms[i + 1]}\t_\t_\t_\t_\t_\t_\t_\t_")
        deprel = "root" if heads[i] == 0 else ("punct" if upos[i] == "PUNCT" else rng.choice(DEPRELS))
        misc = "SpaceAfter=No" if i + 1 < n and upos[i + 1] == "PUNCT" else "_"
        lines.append("\t".join((
            str(i + 1), forms[i], lemmas[i], upos[i], "_", rng.choice(FEATS),
            str(heads[i]), deprel, "_", misc,
        )))
    return "\n".join(lines), mwt is not None


def _ner_sentence(rng: random.Random, words: Words, n: int) -> tuple[list[str], list[str]]:
    """Tokens and IOB2 labels; entities are separated by at least one O."""
    tokens, labels = [], []
    while len(tokens) < n:
        room = n - len(tokens)
        prev_o = not labels or labels[-1] == "O"
        if prev_o and room >= 1 and rng.random() < 0.15:
            span = min(rng.randint(1, 3), room)
            etype = rng.choice(ENTITY_TYPES)
            for j in range(span):
                tokens.append(words.capital(words.word()))
                labels.append(("B-" if j == 0 else "I-") + etype)
        else:
            r = rng.random()
            tokens.append(rng.choice(PUNCT) if r < 0.1 else words.word())
            labels.append("O")
    return tokens, labels


def _write(path: Path, blocks: list[str]) -> None:
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def _columns(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.split("\n")]


# --- treebank-translit --------------------------------------------------------


class TreebankTranslit:
    """Seeded CoNLL-U treebanks and IOB2 files, one set per built-in
    ruleset, each set split over several files, transliterated with one
    ``translit`` call per file.

    One file per call keeps the ``--jobs`` thread pool out of the timed
    region: with two threads its wall time swung by a quarter between runs
    of the same inputs, which no bound here could hold."""

    name = "treebank-translit"
    rulesets = RULESETS
    FILES = 4
    CONLLU_TOKENS = 4800  # per ruleset and round
    NER_TOKENS = 4800

    def __init__(self, root: Path, scale: float):
        self.refs = load_references(root)
        self.scale = scale

    def generate(self, rng: random.Random, rdir: Path, tag: str) -> Round:
        cmds, files = [], []
        tokens = ops = forms = 0
        for rs in self.rulesets:
            words = Words(self.refs[rs], rng)
            for fmt, total in (("conllu", self.CONLLU_TOKENS), ("ner", self.NER_TOKENS)):
                total = _sized(total, self.scale, self.FILES)
                blocks = []
                for k, n in enumerate(_lengths(rng, total, 4, 24)):
                    if fmt == "conllu":
                        block, mwt = _conllu_sentence(rng, words, n, f"{tag}-{rs}-{k}")
                        blocks.append(block)
                        forms += 2 * n + mwt  # form and lemma of each word
                    else:
                        toks, labs = _ner_sentence(rng, words, n)
                        blocks.append("\n".join(f"{t}\t{l}" for t, l in zip(toks, labs)))
                        forms += n
                per_file = -(-len(blocks) // self.FILES)
                for f in range(self.FILES):
                    path = rdir / f"{rs}.{f}.{fmt}"
                    _write(path, blocks[f * per_file:(f + 1) * per_file])
                    out = rdir / f"{rs}.{f}.out.{fmt}"
                    cmds.append(_translit_cmd(rs, fmt, path, out))
                    files.append((rs, fmt, str(path), str(out)))
                tokens += total
                ops += len(blocks)
        return Round(cmds, tokens, ops, {"files": files},
                     {"forms": forms, "tokens_parsed": tokens, "lines_deduplicated": 0})

    def check(self, rnd: Round) -> tuple[int, list[str]]:
        problems = []
        for rs, fmt, path, out in rnd.facts["files"]:
            ref = self.refs[rs]
            name = Path(out).name
            src = _columns(Path(path).read_text(encoding="utf-8"))
            got = _columns(Path(out).read_text(encoding="utf-8"))
            if len(src) != len(got):
                problems.append(f"{name}: {len(got)} lines, input has {len(src)}")
                continue
            # form and lemma columns in CoNLL-U, the token in IOB2; comment
            # and blank lines are one column and stay as they are
            translated = (1, 2) if fmt == "conllu" else (0,)
            for lineno, (s, g) in enumerate(zip(src, got), start=1):
                want = s if len(s) == 1 else [
                    ref(c) if i in translated else c for i, c in enumerate(s)
                ]
                if g != want:
                    problems.append(f"{name}:{lineno}: {g!r} != {want!r}")
                    break
                if any(ref(g[i]) != g[i] for i in translated if len(g) > 1):
                    problems.append(f"{name}:{lineno}: output not idempotent")
                    break
        return 0, problems

    def idempotence_cmds(self, rnd: Round) -> tuple[list[list[str]], list[tuple[Path, Path]]]:
        """Commands that transliterate this round's outputs once more, and
        the (first output, second output) pairs that must be equal."""
        cmds, pairs = [], []
        for rs, fmt, _, out in rnd.facts["files"]:
            first = Path(out)
            again = first.with_name("again." + first.name)
            cmds.append(_translit_cmd(rs, fmt, first, again))
            pairs.append((first, again))
        return cmds, pairs


def _translit_cmd(rules: str, fmt: str, inp: Path, out: Path) -> list[str]:
    return ["translit", "--rules", rules, "--format", fmt, "--in", str(inp), "--out", str(out)]


# --- raw-prep -----------------------------------------------------------------


def _zipf_sampler(rng: random.Random, vocab: list[str], s: float = 1.1):
    cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(len(vocab))))
    return lambda: vocab[bisect.bisect(cum, rng.random() * cum[-1])]


def _subword_vocab(rng: random.Random, refs, n: int) -> tuple[list[str], dict[str, int]]:
    """A mixed-script subword vocabulary with ``##`` continuation pieces."""
    cyrillic, arabic, georgian = (Words(refs[n], rng) for n in
                                  ("cyrillic_latin", "uyghur_latin", "georgian_latin"))
    makers = {
        "Latin": lambda: "".join(rng.choices("abcdefghijklmnopqrstuvwxyzäöüéèñß",
                                             k=rng.randint(1, 9))),
        "Cyrillic": lambda: cyrillic.word(1, 9),
        "Arabic": lambda: arabic.word(1, 8),
        "Georgian": lambda: georgian.word(1, 8),
        "Other": lambda: "".join(rng.choices("αβγδεζηθικλμνξοπρστυφχψω一二三人大中国日本語हिंदी",
                                             k=rng.randint(1, 4))),
        "Common": lambda: "".join(rng.choices("0123456789.,-!?%()", k=rng.randint(1, 4))),
    }
    classes = list(makers)
    # Assumed class shares, not a measured mBERT breakdown. They set how much
    # of scriptdist's time goes to classify_script: a Latin grapheme stops at
    # the first script property, an Other one tries all four.
    cum_weights = list(itertools.accumulate((50, 15, 8, 5, 17, 5)))
    seen: set[str] = set()
    vocab = []
    counts = dict.fromkeys(classes, 0)
    while len(vocab) < n:
        cls = rng.choices(classes, cum_weights=cum_weights)[0]
        tok = makers[cls]()
        if cls == "Other" and token_script(tok) != "Other":
            continue  # a Devanagari sign alone may be a mark
        if rng.random() < 0.4:
            tok = "##" + tok
        if tok in seen:
            continue
        seen.add(tok)
        vocab.append(tok)
        counts[cls] += 1
    return vocab, counts


def _read_dist(path: Path) -> dict[str, int]:
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    return {row[0]: int(row[1]) for row in rows}


class RawPrep:
    """Dedup, raw transliteration, script shares and fold manifests over a
    Zipfian low-type Cyrillic corpus and a subword vocabulary of mBERT's size."""

    name = "raw-prep"
    rulesets = ("cyrillic_latin",)
    UNIQUE_LINES = 3000
    DUP_LINES = 1000
    BLANK_LINES = 40
    CORPUS_TYPES = 1500
    VOCAB = 120000

    def __init__(self, root: Path, scale: float):
        self.refs = load_references(root)
        self.ref = self.refs["cyrillic_latin"]
        self.scale = scale

    def generate(self, rng: random.Random, rdir: Path, tag: str) -> Round:
        words = Words(self.ref, rng)
        types = sorted({words.word(2, 9) for _ in range(_sized(self.CORPUS_TYPES, self.scale, 20))})
        rng.shuffle(types)
        draw = _zipf_sampler(rng, types)
        n_unique = _sized(self.UNIQUE_LINES, self.scale, len(STRESSED_LINES))
        unique, seen = [], set()
        while len(unique) < n_unique:
            toks = [draw() if rng.random() > 0.04 else str(rng.randint(1, 999))
                    for _ in range(rng.randint(4, 16))]
            line = " ".join(toks)
            if line not in seen:
                seen.add(line)
                unique.append(line)
        # fixed stressed lines at fixed, evenly spaced places
        step = n_unique // len(STRESSED_LINES)
        for i, line in enumerate(STRESSED_LINES):
            unique.insert(i * (step + 1), line)
        # each duplicate follows its first occurrence; some carry a
        # trailing space, which dedup ignores; blank lines are dropped
        after: dict[int, list[str]] = {}
        for _ in range(_sized(self.DUP_LINES, self.scale)):
            at = rng.randrange(len(unique))
            dup = unique[rng.randrange(at + 1)] + (" " if rng.random() < 0.2 else "")
            after.setdefault(at, []).append(dup)
        for _ in range(_sized(self.BLANK_LINES, self.scale)):
            after.setdefault(rng.randrange(len(unique)), []).append(rng.choice(("", "  ")))
        lines = []
        for i, line in enumerate(unique):
            lines.append(line)
            lines += after.get(i, ())
        corpus = rdir / "corpus.txt"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")

        corpus_types = sorted({t for line in unique for t in line.split()})
        cvocab = rdir / "corpus.vocab"
        cvocab.write_text("\n".join(corpus_types) + "\n", encoding="utf-8")
        vocab, vocab_classes = _subword_vocab(rng, self.refs, _sized(self.VOCAB, self.scale, 6))
        mvocab = rdir / "mbert.vocab"
        mvocab.write_text("\n".join(vocab) + "\n", encoding="utf-8")
        before = {"Cyrillic": 0, "Common": 0}
        for t in corpus_types:
            before["Common" if t.isdigit() else "Cyrillic"] += 1
        n_split = rng.randint(300, 499)
        split_seed = rng.randrange(1 << 16)

        out = {k: rdir / f"{k}.out" for k in
               ("dedup", "lat", "vocab_lat", "dist_mbert", "dist_corpus", "dist_corpus_lat",
                "plan", "folds", "runs")}
        cmds = [
            ["dedup", "--in", str(corpus), "--out", str(out["dedup"])],
            ["translit", "--rules", "cyrillic_latin", "--in", str(out["dedup"]),
             "--out", str(out["lat"])],
            ["translit", "--rules", "cyrillic_latin", "--in", str(cvocab),
             "--out", str(out["vocab_lat"])],
            ["scriptdist", "--in", str(mvocab), "--out", str(out["dist_mbert"])],
            ["scriptdist", "--in", str(cvocab), "--out", str(out["dist_corpus"])],
            ["scriptdist", "--in", str(out["vocab_lat"]), "--out", str(out["dist_corpus_lat"])],
            ["split", "--n", str(n_split), "--no-dev", "--seed", str(split_seed),
             "--out", str(out["plan"]), "--folds-out", str(out["folds"]),
             "--runs-out", str(out["runs"])],
        ]
        n_corpus = sum(len(l.split()) for l in lines)
        n_kept = sum(len(l.split()) for l in unique)
        tokens = n_corpus + n_kept + 3 * len(corpus_types) + len(vocab)
        facts = {
            "unique": unique,
            "out": {k: str(v) for k, v in out.items()},
            "dists": {
                "dist_mbert": vocab_classes,
                "dist_corpus": before,
                "dist_corpus_lat": {"Latin": before["Cyrillic"], "Common": before["Common"]},
            },
            "n_split": n_split,
        }
        counts = {"forms": len(unique) + len(corpus_types), "tokens_parsed": 0,
                  "lines_deduplicated": len(lines)}
        return Round(cmds, tokens, len(unique), facts, counts)

    def check(self, rnd: Round) -> tuple[int, list[str]]:
        facts, out = rnd.facts, {k: Path(v) for k, v in rnd.facts["out"].items()}
        problems = []
        kept = out["dedup"].read_text(encoding="utf-8").splitlines()
        if kept != facts["unique"]:
            problems.append(f"dedup kept {len(kept)} lines, expected the "
                            f"{len(facts['unique'])} first occurrences")
        lat = out["lat"].read_text(encoding="utf-8").splitlines()
        failed = 0
        if len(lat) != len(kept):
            problems.append(f"translit wrote {len(lat)} lines for {len(kept)}")
        for src, got in zip(facts["unique"], lat):
            if len(src.split()) != len(got.split()):
                problems.append(f"token count changed: {src!r} -> {got!r}")
            elif src in STRESSED_LINES and has_script(got, "Cyrillic"):
                failed += 1
            elif not _same_nfc(got, self.ref(src)):
                problems.append(f"translit {src!r} -> {got!r}, expected {self.ref(src)!r}")
        for key, want in facts["dists"].items():
            got = _read_dist(out[key])
            expect = {cls: want.get(cls, 0) for cls in
                      ("Latin", "Cyrillic", "Arabic", "Georgian", "Common", "Other")}
            expect["total"] = sum(want.values())
            if got != expect:
                problems.append(f"{key}: {got} != {expect}")
        problems += _check_split(out, facts["n_split"])
        return failed, problems


def _same_nfc(a: str, b: str) -> bool:
    return unicodedata.normalize("NFC", a) == unicodedata.normalize("NFC", b)


def _check_split(out: dict[str, Path], n: int, k: int = 8) -> list[str]:
    problems = []
    plan = dict(line.split("\t") for line in out["plan"].read_text().splitlines())
    if plan.get("strategy") != "cross_validation" or plan.get("k") != str(k):
        problems.append(f"split plan {plan}")
    rows = [line.split("\t") for line in out["folds"].read_text().splitlines()]
    if [int(r[0]) for r in rows] != list(range(n)):
        problems.append("folds do not list 0..n-1 once each")
    sizes = [0] * k
    for _, fold in rows:
        sizes[int(fold)] += 1
    if max(sizes) - min(sizes) > 1:
        problems.append(f"fold sizes {sizes} differ by more than one")
    runs: dict[str, list[tuple[str, str]]] = {}
    for run, role, fold in (line.split("\t") for line in out["runs"].read_text().splitlines()):
        runs.setdefault(run, []).append((role, fold))
    for run, roles in runs.items():
        if sorted(int(f) for _, f in roles) != list(range(k)):
            problems.append(f"run {run} does not cover the {k} folds")
        if [r for r, _ in roles].count("test") != 1:
            problems.append(f"run {run} has not exactly one test fold")
    if len(runs) != k - 1:
        problems.append(f"{len(runs)} runs, expected {k - 1} with a held-out dev fold")
    return problems


# --- eval-seeds ---------------------------------------------------------------


def round_half_up(value: float) -> float:
    return float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _other(rng: random.Random, choices, current):
    return rng.choice([c for c in choices if c != current])


class EvalSeeds:
    """A gold CoNLL-U and a gold IOB2 test set, each with 5 prediction files
    perturbed at known rates, scored with ``eval pos|dep|ner``."""

    name = "eval-seeds"
    rulesets = ()
    SEEDS = (1, 2, 3, 4, 5)
    CONLLU_TOKENS = 12000
    NER_TOKENS = 12000

    def __init__(self, root: Path, scale: float):
        self.ref = load_references(root, ("cyrillic_latin",))["cyrillic_latin"]
        self.scale = scale

    def generate(self, rng: random.Random, rdir: Path, tag: str) -> Round:
        words = Words(self.ref, rng)
        total = _sized(self.CONLLU_TOKENS, self.scale, 20)
        gold = [
            [line.split("\t") for line in _conllu_sentence(rng, words, n, f"{tag}-{k}")[0].split("\n")]
            for k, n in enumerate(_lengths(rng, total, 4, 24))
        ]
        _write(rdir / "gold.conllu", ["\n".join("\t".join(c) for c in s) for s in gold])
        words_at = [(s, i) for s, sent in enumerate(gold) for i, c in enumerate(sent)
                    if len(c) == 10 and c[0].isdigit()]
        expect: dict[str, list[float]] = {}
        for seed in self.SEEDS:
            rate = rng.uniform(0.05, 0.3)
            pred = [[list(c) for c in sent] for sent in gold]
            pos = rng.sample(words_at, round(rate * total))
            heads = set(rng.sample(words_at, round(rate * total)))
            rels = rng.sample(words_at, round(rate * total))
            main_changed = set(rels[: len(rels) // 2])
            for s, i in pos:
                pred[s][i][3] = _other(rng, UPOS + ("PUNCT",), gold[s][i][3])
            for s, i in heads:
                n_words = sum(1 for c in gold[s] if len(c) == 10 and c[0].isdigit())
                own = int(gold[s][i][0])
                pred[s][i][6] = str(_other(rng, [h for h in range(n_words + 1) if h != own],
                                           int(gold[s][i][6])))
            for s, i in rels:
                rel = gold[s][i][7]
                main, _, sub = rel.partition(":")
                if (s, i) in main_changed:
                    new_main = _other(rng, ("nsubj", "obj", "obl", "amod", "advmod", "root"), main)
                    pred[s][i][7] = new_main + (":" + sub if sub else "")
                else:  # subtype only: not scored without --strict-deprel
                    pred[s][i][7] = main if sub else main + ":x"
            _write(rdir / f"pred{seed}.conllu", ["\n".join("\t".join(c) for c in s) for s in pred])
            uas_ok = total - len(heads)
            las_ok = sum(1 for w in words_at if w not in heads and w not in main_changed)
            expect.setdefault("upos_acc", []).append(100.0 * (total - len(pos)) / total)
            expect.setdefault("uas", []).append(100.0 * uas_ok / total)
            expect.setdefault("las", []).append(100.0 * las_ok / total)

        ner_total = _sized(self.NER_TOKENS, self.scale, 20)
        ner_gold = [_ner_sentence(rng, words, n) for n in _lengths(rng, ner_total, 4, 24)]
        _write(rdir / "gold.ner", ["\n".join(f"{t}\t{l}" for t, l in zip(*s)) for s in ner_gold])
        n_spans = sum(l.startswith("B-") for _, labels in ner_gold for l in labels)
        for seed in self.SEEDS:
            rate = rng.uniform(0.05, 0.3)
            tp, fp, fn = n_spans, 0, 0
            pred = []
            for tokens, labels in ner_gold:
                labels = list(labels)
                starts = [i for i, l in enumerate(labels) if l.startswith("B-")]
                if starts and rng.random() < rate:
                    tp, fp, fn = tp - 1, fp + _perturb_span(rng, labels, rng.choice(starts)), fn + 1
                elif "O" in labels and rng.random() < rate / 2:
                    i = rng.choice([i for i, l in enumerate(labels) if l == "O"])
                    labels[i] = "B-" + rng.choice(ENTITY_TYPES)
                    fp += 1
                pred.append("\n".join(f"{t}\t{l}" for t, l in zip(tokens, labels)))
            _write(rdir / f"pred{seed}.ner", pred)
            p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
            r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
            expect.setdefault("precision", []).append(p)
            expect.setdefault("recall", []).append(r)
            expect.setdefault("f1", []).append(2 * p * r / (p + r) if p + r else 0.0)

        seeds = ["--seeds"] + [str(s) for s in self.SEEDS]
        cmds, outs = [], {}
        for task, gold_file, ext in (("pos", "gold.conllu", "conllu"),
                                     ("dep", "gold.conllu", "conllu"),
                                     ("ner", "gold.ner", "ner")):
            outs[task] = str(rdir / f"{task}.jsonl")
            cmds.append(["eval", task, "--gold", str(rdir / gold_file), "--json",
                         "--out", outs[task]] + seeds
                        + [a for s in self.SEEDS for a in ("--pred", str(rdir / f"pred{s}.{ext}"))])
        n = len(self.SEEDS) + 1
        tokens = 2 * n * total + n * ner_total
        counts = {"forms": 0, "tokens_parsed": tokens, "lines_deduplicated": 0}
        return Round(cmds, tokens, 3 * len(self.SEEDS), {"expect": expect, "outs": outs}, counts)

    def check(self, rnd: Round) -> tuple[int, list[str]]:
        problems = []
        got: dict[tuple[str, object], float] = {}
        for path in rnd.facts["outs"].values():
            for line in Path(path).read_text(encoding="utf-8").splitlines():
                rec = json.loads(line)
                got[(rec["metric"], rec["seed"])] = rec["value"]
        for metric, values in rnd.facts["expect"].items():
            want = {seed: v for seed, v in zip(self.SEEDS, values)}
            want["mean"] = statistics.fmean(values)
            want["sd"] = statistics.pstdev(values)
            for seed, value in want.items():
                have, want_rounded = got.get((metric, seed)), round_half_up(value)
                # the CLI rounds half-up to two decimals; anything else is a miscount
                if have is None or abs(have - want_rounded) > 1e-9:
                    problems.append(f"{metric} seed {seed}: {have} != {want_rounded}")
        for seed in self.SEEDS:
            if got.get(("las", seed), 0) > got.get(("uas", seed), 0):
                problems.append(f"seed {seed}: LAS exceeds UAS")
        return 0, problems


def _perturb_span(rng: random.Random, labels: list[str], start: int) -> int:
    """Change the gold span at ``start`` so that it no longer matches: drop
    it, change its type or move its end. Returns the spans it adds."""
    etype = labels[start][2:]
    end = start
    while end + 1 < len(labels) and labels[end + 1] == "I-" + etype:
        end += 1
    kind = rng.choice(("drop", "type", "shift"))
    if kind == "drop":
        labels[start:end + 1] = ["O"] * (end + 1 - start)
        return 0
    if kind == "shift" and end + 1 < len(labels) and labels[end + 1] == "O":
        labels[end + 1] = "I-" + etype
        return 1
    if kind == "shift" and end > start:
        labels[end] = "O"
        return 1
    new = _other(rng, ENTITY_TYPES, etype)
    labels[start:end + 1] = ["B-" + new] + ["I-" + new] * (end - start)
    return 1


WORKLOADS = {w.name: w for w in (TreebankTranslit, RawPrep, EvalSeeds)}
