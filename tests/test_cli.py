import io
import json
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from unseenlang.cli import run
from unseenlang.scripts import script_distribution

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

    def test_split_standard(self, capsys):
        rc, out, _ = invoke(capsys, "split", "--n", "1000")
        assert rc == 0 and "strategy\tstandard" in out


def whole_text_tsv(text: str) -> str:
    """scriptdist's output computed from the whole text split at once."""
    tokens = [
        line.rstrip("\n") for line in text.splitlines(keepends=True) if line.rstrip("\n")
    ]
    return script_distribution(tokens, subword_prefix="##").to_tsv()


# Tokens, the subword marker and every line boundary str.splitlines knows.
VOCAB = st.lists(
    st.sampled_from(
        ["a", "ш", "##", "7", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
         "\x1e", "\x85", "\u2028", "\u2029"]
    ),
    max_size=20,
).map("".join)
FIXTURE_SETTINGS = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


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
