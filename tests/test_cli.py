import io
import json
import re
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from unseenlang.cli import build_parser, run
from unseenlang.scripts import script_distribution

# Raw lines with "\n" line ends: words, blanks, repeats and other breaks.
RAW = st.lists(
    st.lists(st.sampled_from(["a", "ш", "##", " ", "\x85", "\u2028", "\x0c"]), max_size=4),
    max_size=6,
).map(lambda lines: "".join("".join(line) + "\n" for line in lines))
FIXTURE_SETTINGS = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
CONLLU = (
    "1\tмон\tмон\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
    "2\tмолян\tмолемс\tVERB\t_\t_\t0\troot\t_\t_\n"
)


def invoke(capsys, *argv):
    rc = run(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        rc, _, err = invoke(capsys, "frobnicate")
        assert rc == 2
        assert "invalid choice" in err

    def test_no_arguments(self, capsys):
        rc, _, _ = invoke(capsys)
        assert rc == 2

    def test_missing_file_is_data_error(self, capsys):
        rc, _, err = invoke(capsys, "dedup", "--in", "/nonexistent/path.txt")
        assert rc == 1
        assert "error" in err


class TestTranslit:
    def test_raw_file(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text("ش\n", encoding="utf-8")
        out = tmp_path / "b.txt"
        rc, _, _ = invoke(capsys, "translit", "--rules", "uyghur_latin", "--in", str(src), "--out", str(out))
        assert rc == 0
        assert out.read_text(encoding="utf-8") == "ş\n"

    def test_stdout(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text("мон\n", encoding="utf-8")
        rc, out, _ = invoke(capsys, "translit", "--rules", "cyrillic_latin", "--in", str(src))
        assert rc == 0 and out == "mon\n"

    def test_conllu_format(self, tmp_path, capsys):
        src = tmp_path / "a.conllu"
        src.write_text(CONLLU, encoding="utf-8")
        rc, out, _ = invoke(
            capsys, "translit", "--rules", "cyrillic_latin", "--format", "conllu", "--in", str(src)
        )
        assert rc == 0
        assert "mon" in out and "PRON" in out and "молян" not in out

    def test_format_mismatch_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text("not conllu at all\n", encoding="utf-8")
        rc, _, err = invoke(
            capsys, "translit", "--rules", "cyrillic_latin", "--format", "conllu", "--in", str(src)
        )
        assert rc == 1
        assert "line 1" in err

    def test_custom_rule_file(self, tmp_path, capsys):
        rules = tmp_path / "my.rules"
        rules.write_text("@name my\n@source Cyrillic\n@target Latin\nм\tq\n", encoding="utf-8")
        src = tmp_path / "a.txt"
        src.write_text("мм\n", encoding="utf-8")
        rc, out, _ = invoke(capsys, "translit", "--rules", str(rules), "--in", str(src))
        assert rc == 0 and out == "qq\n"

    def test_multiple_inputs_to_directory(self, tmp_path, capsys):
        for name, text in (("a.txt", "ша\n"), ("b.txt", "ба\n")):
            (tmp_path / name).write_text(text, encoding="utf-8")
        out_dir = tmp_path / "out"
        rc, _, _ = invoke(
            capsys,
            "translit", "--rules", "cyrillic_latin",
            "--in", str(tmp_path / "a.txt"), "--in", str(tmp_path / "b.txt"),
            "--out", str(out_dir),
        )
        assert rc == 0
        assert (out_dir / "a.txt").read_text(encoding="utf-8") == "sha\n"
        assert (out_dir / "b.txt").read_text(encoding="utf-8") == "ba\n"

    def test_multiple_inputs_sharing_a_name_refused(self, tmp_path, capsys):
        first, second = tmp_path / "a" / "x.txt", tmp_path / "b" / "x.txt"
        for path in (first, second):
            path.parent.mkdir()
        first.write_text("ша\n", encoding="utf-8")
        second.write_bytes(b"\xff\n")  # reading it would fail with a decode error
        out_dir = tmp_path / "d"
        rc, out, err = invoke(
            capsys,
            "translit", "--rules", "cyrillic_latin",
            "--in", str(first), "--in", str(second), "--out", str(out_dir),
        )
        assert rc == 1 and out == ""
        assert err == (
            f"unseenlang: error: {first} and {second} would both be written to {out_dir / 'x.txt'}\n"
        )
        assert not out_dir.exists()

    def test_stdin_among_multiple_inputs_refused(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "a" / "x.txt"
        src.parent.mkdir()
        src.write_text("ша\n", encoding="utf-8")
        stdin = io.StringIO("мон\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        out_dir = tmp_path / "d"
        rc, out, err = invoke(
            capsys,
            "translit", "--rules", "cyrillic_latin", "--in", "-", "--in", str(src), "--out", str(out_dir),
        )
        assert rc == 1 and out == ""
        assert err == "unseenlang: error: stdin (-) cannot be one of several inputs\n"
        assert stdin.tell() == 0 and not out_dir.exists()

    def test_multiple_inputs_all_or_nothing(self, tmp_path, capsys):
        (tmp_path / "ok.conllu").write_text(CONLLU, encoding="utf-8")
        (tmp_path / "bad.conllu").write_text("1\tx\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        rc, _, err = invoke(
            capsys,
            "translit", "--rules", "cyrillic_latin", "--format", "conllu",
            "--in", str(tmp_path / "ok.conllu"), "--in", str(tmp_path / "bad.conllu"),
            "--out", str(out_dir),
        )
        assert rc == 1
        assert f"{tmp_path / 'bad.conllu'}: line 1: expected 10 columns" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "name, content, fmt, message",
        [
            ("a.conllu", b"1\tx\n", "conllu", "line 1: expected 10 columns, got 2"),
            ("a.ner", b"x\tO\ny\tI-PER\n", "ner", "line 2: dangling I-PER after O (sentence 1)"),
            (
                "b.conllu",
                b"1\ta\ta\tX\t_\t_\t0\troot\t_\t_\n3\tb\tb\tX\t_\t_\t1\tdep\t_\t_\n",
                "conllu",
                "line 2: non-contiguous token ids: expected 2, got 3",
            ),
            ("a.txt", b"\xff\n", "raw", "'utf-8' codec can't decode byte 0xff in position 0"),
        ],
    )
    def test_data_error_names_file(self, tmp_path, capsys, name, content, fmt, message):
        src = tmp_path / name
        src.write_bytes(content)
        rc, out, err = invoke(
            capsys, "translit", "--rules", "cyrillic_latin", "--format", fmt, "--in", str(src)
        )
        assert rc == 1 and out == ""
        assert err.startswith(f"unseenlang: error: {src}: {message}")

    def test_malformed_rule_file_names_file(self, tmp_path, capsys):
        rules = tmp_path / "my.rules"
        rules.write_text("@name my\n@source Cyrillic\n@target Latin\nм\n", encoding="utf-8")
        src = tmp_path / "a.txt"
        src.write_text("м\n", encoding="utf-8")
        rc, _, err = invoke(capsys, "translit", "--rules", str(rules), "--in", str(src))
        assert rc == 1
        assert err == (
            f"unseenlang: error: {rules}: line 4: expected 2 or 4 tab-separated fields, got 1\n"
        )

    def test_invalid_rule_file_writes_nothing(self, tmp_path, capsys):
        rules = tmp_path / "bad.rules"
        rules.write_text(
            "@name bad\n@source Cyrillic\n@target Latin\nа\tб\nб\tc\n", encoding="utf-8"
        )
        src = tmp_path / "empty.txt"
        src.write_text("", encoding="utf-8")
        out = tmp_path / "out.txt"
        rc, _, err = invoke(
            capsys, "translit", "--rules", str(rules), "--in", str(src), "--out", str(out)
        )
        assert rc == 1
        assert "bad.rules" in err
        assert not out.exists()


class TestRulesValidate:
    def test_builtin_ok(self, capsys):
        rc, out, _ = invoke(capsys, "rules-validate", "--rules", "sorani_latin")
        assert rc == 0 and "ok" in out

    def test_invalid_file(self, tmp_path, capsys):
        rules = tmp_path / "bad.rules"
        rules.write_text("@name bad\n@source Cyrillic\n@target Latin\nа\tб\nб\tc\n", encoding="utf-8")
        rc, out, err = invoke(capsys, "rules-validate", "--rules", str(rules))
        assert rc == 1
        assert "idempotence" in out


class TestPipelineCommands:
    def test_dedup(self, tmp_path, capsys):
        src = tmp_path / "c.txt"
        src.write_text("a\nb\na\n\n", encoding="utf-8")
        rc, out, err = invoke(capsys, "dedup", "--in", str(src))
        assert rc == 0 and out == "a\nb\n"
        assert "kept 2 of 4" in err

    def test_dedup_cuts_lines_at_cr_and_lf_only(self, tmp_path, capsys):
        src = tmp_path / "c.txt"
        src.write_text("a\x85b\nc\u2028d\n", encoding="utf-8")
        rc, out, err = invoke(capsys, "dedup", "--in", str(src))
        assert rc == 0 and out == "a\x85b\nc\u2028d\n"
        assert "kept 2 of 2" in err

    @FIXTURE_SETTINGS
    @given(RAW, st.sampled_from(["\r\n", "\r"]), st.booleans())
    def test_line_endings_and_bom_give_same_output(self, tmp_path, capsys, text, end, bom):
        variant = ("\ufeff" if bom else "") + text.replace("\n", end)
        for command in ("dedup", "scriptdist"):
            outs = []
            for i, body in enumerate((text, variant)):
                src = tmp_path / f"{command}{i}.txt"
                src.write_bytes(body.encode("utf-8"))
                rc, out, _ = invoke(capsys, command, "--in", str(src))
                assert rc == 0
                outs.append(out)
            stdin = io.TextIOWrapper(
                io.BytesIO(variant.encode("utf-8")), encoding="utf-8", newline="\n"
            )
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sys, "stdin", stdin)
                rc, out, _ = invoke(capsys, command, "--in", "-")
            assert rc == 0 and outs == [out, out]

    def test_scriptdist(self, tmp_path, capsys):
        src = tmp_path / "vocab.txt"
        src.write_text("abc\nгде\n##ing\n7\n", encoding="utf-8")
        rc, out, _ = invoke(capsys, "scriptdist", "--in", str(src))
        rows = dict(line.split("\t")[:2] for line in out.splitlines())
        assert rows["Latin"] == "2" and rows["Cyrillic"] == "1" and rows["Common"] == "1"
        assert rows["total"] == "4"

    def test_corpus_stats_conllu(self, tmp_path, capsys):
        src = tmp_path / "a.conllu"
        src.write_text(CONLLU, encoding="utf-8")
        rc, out, _ = invoke(capsys, "corpus-stats", "--format", "conllu", "--in", str(src))
        assert rc == 0 and out == "sentences\t1\ntokens\t2\n"

    def test_split_manifests(self, tmp_path, capsys):
        folds = tmp_path / "folds.tsv"
        runs = tmp_path / "runs.tsv"
        rc, out, _ = invoke(
            capsys,
            "split", "--n", "300", "--no-dev", "--seed", "3",
            "--folds-out", str(folds), "--runs-out", str(runs),
        )
        assert rc == 0
        assert "strategy\tcross_validation" in out
        fold_lines = folds.read_text(encoding="utf-8").splitlines()
        assert len(fold_lines) == 300
        run_lines = runs.read_text(encoding="utf-8").splitlines()
        assert len(run_lines) == 7 * 8  # 7 runs, one role row per fold
        assert run_lines[0].split("\t")[1] in {"train", "dev", "test"}

    def test_failed_split_writes_nothing(self, tmp_path, capsys):
        plan, folds = tmp_path / "plan.tsv", tmp_path / "f.tsv"
        rc, _, err = invoke(
            capsys, "split", "--n", "3", "--no-dev", "--out", str(plan), "--folds-out", str(folds)
        )
        assert rc == 1 and "cannot make 8 folds out of 3 sentences" in err
        assert not plan.exists() and not folds.exists()

    def test_split_standard(self, capsys):
        rc, out, _ = invoke(capsys, "split", "--n", "1000")
        assert rc == 0 and "strategy\tstandard" in out


def whole_text_tsv(text: str) -> str:
    """scriptdist's output computed from the whole text split at once,
    at "\\n", "\\r\\n" and "\\r" only."""
    tokens = [line for line in re.split(r"\r\n|\r|\n", text) if line]
    return script_distribution(tokens, subword_prefix="##").to_tsv()


# Tokens, the subword marker and every line boundary str.splitlines knows.
VOCAB = st.lists(
    st.sampled_from(
        ["a", "ш", "##", "7", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
         "\x1e", "\x85", "\u2028", "\u2029"]
    ),
    max_size=20,
).map("".join)


class TestScriptdistStreaming:
    @FIXTURE_SETTINGS
    @given(VOCAB)
    @example("")
    @example("abc\n\n\nгде\n")
    @example("abc\r\n##ing\r\n\r\nгде")
    @example("a\rш\r\r7")
    @example("a\x0cш\n\x0c\n##\u2028ш\x85x\n")
    def test_file_matches_whole_text_split(self, tmp_path, capsys, text):
        src = tmp_path / "vocab.txt"
        src.write_bytes(text.encode("utf-8"))
        rc, out, _ = invoke(capsys, "scriptdist", "--in", str(src))
        assert rc == 0
        assert out == whole_text_tsv(src.read_text(encoding="utf-8"))

    @FIXTURE_SETTINGS
    @given(VOCAB)
    @example("abc\r\n##ing\r\n\r\nгде")
    @example("a\rш\r\x0c\u2028\n\n7")
    def test_stdin_matches_whole_text_split(self, monkeypatch, capsys, text):
        # POSIX stdin: UTF-8, lines split at "\n" only, "\r" kept
        stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline="\n")
        monkeypatch.setattr(sys, "stdin", stdin)
        rc, out, _ = invoke(capsys, "scriptdist", "--in", "-")
        assert rc == 0
        assert not stdin.closed
        assert out == whole_text_tsv(text)


class TestEval:
    def test_pos_self_evaluation(self, tmp_path, capsys):
        gold = tmp_path / "g.conllu"
        gold.write_text(CONLLU, encoding="utf-8")
        rc, out, _ = invoke(capsys, "eval", "pos", "--gold", str(gold), "--pred", str(gold))
        assert rc == 0
        assert "POS\tupos_acc\t100.00\t0" in out

    def test_multi_seed_aggregate(self, tmp_path, capsys):
        gold = tmp_path / "g.conllu"
        gold.write_text(CONLLU, encoding="utf-8")
        rc, out, _ = invoke(
            capsys,
            "eval", "dep", "--gold", str(gold),
            "--pred", str(gold), "--pred", str(gold),
            "--seeds", "1", "2", "--json",
        )
        assert rc == 0
        records = [json.loads(line) for line in out.splitlines()]
        means = [r for r in records if r["seed"] == "mean"]
        assert {r["metric"] for r in means} == {"uas", "las"}
        assert all(r["value"] == 100.0 for r in means)

    def test_alignment_error_exit_code(self, tmp_path, capsys):
        gold = tmp_path / "g.conllu"
        gold.write_text(CONLLU, encoding="utf-8")
        pred = tmp_path / "p.conllu"
        pred.write_text("1\tx\tx\tX\t_\t_\t0\troot\t_\t_\n", encoding="utf-8")
        rc, _, err = invoke(capsys, "eval", "pos", "--gold", str(gold), "--pred", str(pred))
        assert rc == 1 and "error" in err


class TestCategorize:
    def test_builtin_scores(self, capsys):
        rc, out, _ = invoke(capsys, "categorize", "--language-labels")
        assert rc == 0
        assert "ug\tPOS\t-0.14438\t-0.01734\tHard" in out
        assert "ckb\tall\t-\t-\tHard" in out

    def test_custom_file(self, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        scores.write_text("xx\tPOS\t90\t95\t96\n", encoding="utf-8")
        rc, out, _ = invoke(capsys, "categorize", "--in", str(scores))
        assert rc == 0 and out.splitlines()[1].endswith("Easy")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("xx\tPOS\t90\t95\n", "expected 5 columns, got 4"),
            ("xx\tPOS\t9x\t95\t96\n", "could not convert string to float: '9x'"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, row, message):
        scores = tmp_path / "s.tsv"
        header = "language\ttask\tbaseline\tmbert\tmbert_mlm\nyy\tPOS\t90\t95\t96\n"
        scores.write_text(header + row, encoding="utf-8")
        rc, out, err = invoke(capsys, "categorize", "--in", str(scores))
        assert rc == 1 and out == ""
        assert err.startswith(f"unseenlang: error: {scores}: line 3: {message}")


class TestLangs:
    def test_table(self, capsys):
        rc, out, _ = invoke(capsys, "langs")
        assert rc == 0 and len(out.splitlines()) == 16  # header + 15 languages

    def test_single(self, capsys):
        rc, out, _ = invoke(capsys, "langs", "fao")
        assert rc == 0 and out.startswith("fao\tFaroese\tLatin\t")

    def test_unknown(self, capsys):
        rc, _, err = invoke(capsys, "langs", "zz")
        assert rc == 1 and "unknown language" in err


class TestParserReuse:
    """One parser serves every call in a process; no option carries over."""

    def test_translit_lemmas_after_no_lemmas(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        src = tmp_path / "a.conllu"
        src.write_text(CONLLU, encoding="utf-8")
        argv = ("translit", "--rules", "cyrillic_latin", "--format", "conllu", "--in", str(src))
        rc, out, _ = invoke(capsys, *argv, "--no-lemmas")
        assert rc == 0 and "\tmolyan\tмолемс\t" in out
        rc, out, _ = invoke(capsys, *argv)
        assert rc == 0 and "\tmolyan\tmolems\t" in out

    def test_eval_seeds_after_explicit_seeds(self, tmp_path, capsys):
        gold = tmp_path / "g.conllu"
        gold.write_text(CONLLU, encoding="utf-8")
        argv = ("eval", "pos", "--gold", str(gold), "--pred", str(gold))
        assert invoke(capsys, *argv, "--seeds", "7") == (0, "POS\tupos_acc\t100.00\t7\n", "")
        assert invoke(capsys, *argv) == (0, "POS\tupos_acc\t100.00\t0\n", "")


PIN_GOLD = (
    "# sent_id = 1\n"
    "1\tмон\tмон\tPRON\t_\t_\t2\tnsubj:pass\t_\t_\n"
    "2\tмолян\tмолемс\tVERB\t_\t_\t0\troot\t_\t_\n"
    "\n"
    "1\tшар\tшар\tNOUN\t_\t_\t0\troot\t_\t_\n"
)
PIN_FILES = {
    "raw.txt": "мон  молян\n\n \nшар\n",
    "gold.conllu": PIN_GOLD,
    "p1.conllu": PIN_GOLD.replace("PRON\t_\t_\t2\tnsubj:pass", "NOUN\t_\t_\t2\tnsubj"),
    "p2.conllu": PIN_GOLD.replace("\t2\tnsubj:pass", "\t0\tnsubj:pass"),
    "gold.ner": "Мон\tB-PER\nмолян\tI-PER\nшар\tO\n\nМосква\tB-LOC\n",
    "p1.ner": "Мон\tB-PER\nмолян\tO\nшар\tB-ORG\n\nМосква\tB-LOC\n",
    "p2.ner": "Мон\tO\nмолян\tI-PER\nшар\tO\n\nМосква\tB-LOC\n",  # dangling I-PER
}
TRANSLIT = "translit --rules cyrillic_latin"
PIN_CONLLU_OUT = (
    "# sent_id = 1\n"
    "1\tmon\t{mon}\tPRON\t_\t_\t2\tnsubj:pass\t_\t_\n"
    "2\tmolyan\t{molems}\tVERB\t_\t_\t0\troot\t_\t_\n"
    "\n"
    "1\tshar\t{shar}\tNOUN\t_\t_\t0\troot\t_\t_\n"
)
PIN_CASES = [
    (f"{TRANSLIT} --in raw.txt", 0, "mon  molyan\n\n \nshar\n"),
    (
        f"{TRANSLIT} --format conllu --in gold.conllu",
        0,
        PIN_CONLLU_OUT.format(mon="mon", molems="molems", shar="shar"),
    ),
    (
        f"{TRANSLIT} --format conllu --no-lemmas --in gold.conllu",
        0,
        PIN_CONLLU_OUT.format(mon="мон", molems="молемс", shar="шар"),
    ),
    (f"{TRANSLIT} --format ner --in gold.ner", 0, "Mon\tB-PER\nmolyan\tI-PER\nshar\tO\n\nMoskva\tB-LOC\n"),
    ("corpus-stats --in raw.txt", 0, "sentences\t2\ntokens\t3\n"),
    ("corpus-stats --format raw --repair --in raw.txt", 0, "sentences\t2\ntokens\t3\n"),
    ("corpus-stats --format conllu --in gold.conllu", 0, "sentences\t2\ntokens\t3\n"),
    ("corpus-stats --format conllu --repair --in gold.conllu", 0, "sentences\t2\ntokens\t3\n"),
    ("corpus-stats --format ner --in p2.ner", 1, ""),
    ("corpus-stats --format ner --repair --in p2.ner", 0, "sentences\t2\ntokens\t4\n"),
    ("eval pos --gold gold.conllu --pred p1.conllu", 0, "POS\tupos_acc\t66.67\t0\n"),
    (
        "eval pos --gold gold.conllu --pred p1.conllu --json",
        0,
        '{"task": "POS", "metric": "upos_acc", "value": 66.67, "seed": 0}\n',
    ),
    (
        "eval pos --gold gold.conllu --pred p1.conllu --pred p2.conllu",
        0,
        "POS\tupos_acc\t66.67\t0\nPOS\tupos_acc\t100.00\t1\n"
        "POS\tupos_acc\t83.33\tmean\nPOS\tupos_acc\t16.67\tsd\n",
    ),
    (
        "eval dep --gold gold.conllu --pred p1.conllu --pred p2.conllu --seeds 3 4",
        0,
        "DEP\tuas\t100.00\t3\nDEP\tlas\t100.00\t3\nDEP\tuas\t66.67\t4\nDEP\tlas\t66.67\t4\n"
        "DEP\tuas\t83.33\tmean\nDEP\tuas\t16.67\tsd\nDEP\tlas\t83.33\tmean\nDEP\tlas\t16.67\tsd\n",
    ),
    (
        "eval dep --gold gold.conllu --pred p1.conllu --pred p2.conllu --json",
        0,
        '{"task": "DEP", "metric": "uas", "value": 100.0, "seed": 0}\n'
        '{"task": "DEP", "metric": "las", "value": 100.0, "seed": 0}\n'
        '{"task": "DEP", "metric": "uas", "value": 66.67, "seed": 1}\n'
        '{"task": "DEP", "metric": "las", "value": 66.67, "seed": 1}\n'
        '{"task": "DEP", "metric": "uas", "value": 83.33, "seed": "mean"}\n'
        '{"task": "DEP", "metric": "uas", "value": 16.67, "seed": "sd"}\n'
        '{"task": "DEP", "metric": "las", "value": 83.33, "seed": "mean"}\n'
        '{"task": "DEP", "metric": "las", "value": 16.67, "seed": "sd"}\n',
    ),
    (
        "eval dep --gold gold.conllu --pred p1.conllu --pred p2.conllu --strict-deprel",
        0,
        "DEP\tuas\t100.00\t0\nDEP\tlas\t66.67\t0\nDEP\tuas\t66.67\t1\nDEP\tlas\t66.67\t1\n"
        "DEP\tuas\t83.33\tmean\nDEP\tuas\t16.67\tsd\nDEP\tlas\t66.67\tmean\nDEP\tlas\t0.00\tsd\n",
    ),
    (
        "eval ner --gold gold.ner --pred p1.ner",
        0,
        "NER\tprecision\t33.33\t0\nNER\trecall\t50.00\t0\nNER\tf1\t40.00\t0\n",
    ),
    ("eval ner --gold gold.ner --pred p1.ner --pred p2.ner", 1, ""),
    (
        "eval ner --gold gold.ner --pred p1.ner --pred p2.ner --repair --json",
        0,
        '{"task": "NER", "metric": "precision", "value": 33.33, "seed": 0}\n'
        '{"task": "NER", "metric": "recall", "value": 50.0, "seed": 0}\n'
        '{"task": "NER", "metric": "f1", "value": 40.0, "seed": 0}\n'
        '{"task": "NER", "metric": "precision", "value": 50.0, "seed": 1}\n'
        '{"task": "NER", "metric": "recall", "value": 50.0, "seed": 1}\n'
        '{"task": "NER", "metric": "f1", "value": 50.0, "seed": 1}\n'
        '{"task": "NER", "metric": "precision", "value": 41.67, "seed": "mean"}\n'
        '{"task": "NER", "metric": "precision", "value": 8.33, "seed": "sd"}\n'
        '{"task": "NER", "metric": "recall", "value": 50.0, "seed": "mean"}\n'
        '{"task": "NER", "metric": "recall", "value": 0.0, "seed": "sd"}\n'
        '{"task": "NER", "metric": "f1", "value": 45.0, "seed": "mean"}\n'
        '{"task": "NER", "metric": "f1", "value": 5.0, "seed": "sd"}\n',
    ),
]


@pytest.mark.parametrize("command, rc, out", PIN_CASES, ids=[c for c, _, _ in PIN_CASES])
def test_outputs_pinned(tmp_path, monkeypatch, capsys, command, rc, out):
    """Exact stdout and exit code of every format and task."""
    for name, text in PIN_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert invoke(capsys, *command.split())[:2] == (rc, out)


class TestDeterminism:
    def test_same_argv_same_bytes(self, tmp_path, capsys):
        src = tmp_path / "a.txt"
        src.write_text("шар\nмон\nшар\n", encoding="utf-8")
        outputs = []
        for _ in range(2):
            rc, out, _ = invoke(capsys, "dedup", "--in", str(src))
            assert rc == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
