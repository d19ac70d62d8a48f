import ast
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from santrauka import cli
from santrauka.cli import (
    COMMANDS,
    RunConfig,
    _atomic_write,
    _build_parser,
    main,
    parse_args,
    render_args,
    run,
)
from santrauka.corpus import longest_common_substring_len
from santrauka.decode import METHODS
from santrauka.lm import NGramModel, train_ngram
from santrauka.tokenizer import Vocabulary, char_vocabulary, viterbi_segment

ROOT = Path(__file__).resolve().parent.parent


def write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
        encoding="utf-8",
    )
    return str(path)


def synthetic_articles(count, seed=0, source_names=("alpha.lt", "beta.lt")):
    """Articles that pass every filter rule: disjoint summary/body letters."""
    rng = np.random.default_rng(seed)
    summary_words = ["deima", "gale", "kalba", "diena", "miela", "balta"]
    body_words = ["noru", "purvo", "rytu", "sausu", "tyru", "vyru", "zuvys"]
    records = []
    for i in range(count):
        summary = " ".join(rng.choice(summary_words, size=4))
        body = " ".join(rng.choice(body_words, size=30))
        records.append(
            {
                "source": source_names[i % len(source_names)],
                "url": f"http://example/{i}",
                "published_at": f"20{10 + i % 10:02d}-01-0{1 + i % 9}",
                "summary": summary,
                "body": body,
            }
        )
    return records


#: The flags each command takes, by RunConfig field. Written out here rather
#: than read from the field metadata, so the two check each other.
_FILTER_FLAGS = {"input", "output", "min_summary_chars", "min_body_chars", "min_ratio",
                 "max_overlap_ratio"}
SCOPE = {
    "filter": _FILTER_FLAGS,
    "stats": _FILTER_FLAGS,
    "split": {"input", "output", "seed", "n_validation"},
    "train-lm": {"input", "output", "vocab", "ngram_order", "alpha"},
    "decode": {"input", "output", "model", "seed", "workers", "method", "beam_size", "top_k",
               "top_p", "temperature", "no_repeat_ngram_size", "max_length",
               "sample_within_beam"},
    "evaluate": {"input", "output", "method", "stemmer"},
    "pipeline": {"input", "output", "vocab", "seed", "workers", "method", "beam_size",
                 "top_k", "top_p", "temperature", "no_repeat_ngram_size", "max_length",
                 "sample_within_beam", "ngram_order", "alpha", "n_validation", "stemmer",
                 "min_summary_chars", "min_body_chars", "min_ratio", "max_overlap_ratio"},
}

#: A valid value other than the default for every RunConfig flag.
FIELD_VALUES = {
    "input": "in.jsonl", "output": "out.jsonl", "model": "m.json", "vocab": "v.txt",
    "seed": 3, "workers": 2, "method": "greedy", "beam_size": 4, "top_k": 5, "top_p": 0.5,
    "temperature": 0.5, "no_repeat_ngram_size": 3, "max_length": 9,
    "sample_within_beam": True, "ngram_order": 2, "alpha": 0.5, "n_validation": 7,
    "stemmer": "lithuanian-light", "min_summary_chars": 5, "min_body_chars": 50,
    "min_ratio": 1.5, "max_overlap_ratio": 0.3,
}


def _required_args(command, but=None):
    """``command`` with the paths it requires, except the one for field ``but``."""
    paths = {"input": "i", "output": "o", **({"model": "m"} if command == "decode" else {})}
    return [command, *(f"--{name}={path}" for name, path in paths.items() if name != but)]


class TestCommandScope:
    def test_tables_cover_every_command_and_field(self):
        assert set(SCOPE) == set(COMMANDS)
        assert set(FIELD_VALUES) == {f.name for f in fields(RunConfig)} - {"command"}
        assert [len(SCOPE[c]) for c in COMMANDS] == [6, 6, 4, 5, 13, 4, 21]
        assert sum(map(len, SCOPE.values())) == 59

    @pytest.mark.parametrize("name", FIELD_VALUES)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_takes_only_the_fields_it_reads(self, tmp_path, capsys, command, name):
        value = FIELD_VALUES[name]
        flag = "--" + name.replace("_", "-")
        flag_argv = [*_required_args(command, but=name), flag if value is True else
                     f"{flag}={value}"]
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({name: value}), encoding="utf-8")
        config_argv = [*_required_args(command, but=name), "--config", str(config_path)]
        if name in SCOPE[command]:
            assert getattr(parse_args(flag_argv), name) == value
            assert getattr(parse_args(config_argv), name) == value
            return
        for argv in (flag_argv, config_argv):
            with pytest.raises(SystemExit) as exc:
                parse_args(argv)
            assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: {command} does not take {flag_argv[-1]}\n" in err
        assert f"error: {command} does not take --config keys [{name!r}]\n" in err

    def test_every_flag_has_help(self):
        _, subparsers = _build_parser()
        assert set(subparsers) == set(COMMANDS)
        for command, subparser in subparsers.items():
            for action in subparser._actions:
                assert action.help, (command, action.option_strings)

    def test_scope_errors_show_the_commands_own_usage(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"beam_size": 3}), encoding="utf-8")
        for extra in (["--beam-size", "3"], ["--config", str(config_path)]):
            with pytest.raises(SystemExit) as exc:
                parse_args(["filter", "--input", "i", "--output", "o", *extra])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: santrauka filter ")
            usage = err.partition("santrauka filter: error:")[0]
            assert "--min-ratio" in usage and "--beam-size" not in usage
        assert err.endswith("error: filter does not take --config keys ['beam_size']\n")


#: Help requests, usage errors, and valid runs, each parsed once by the
#: one-subparser parser and once by the parser of every command.
_ORACLE_ARGVS = [
    ["--help"], ["-h"], [],
    *([command, "--help"] for command in COMMANDS),
    *(["-h", command] for command in COMMANDS),
    ["transmogrify"],
    ["stats"],
    ["filter", "--input", "i"],
    ["filter", "--input", "i", "--output", "o", "--beam-size", "3"],
    ["decode", "--input", "i", "--output", "o", "--model", "m", "--beam-size", "many"],
    ["decode", "--input", "i", "--output", "o", "--model", "m", "--method", "viterbi"],
    ["pipeline", "--input"],
    ["pipeline", "--input", "i", "--output", "o", "--seed=-1"],
    ["--", "pipeline", "--input", "i", "--output", "o", "--temperature=nan"],
    ["train-lm", "--input", "i", "--output", "o", "--ngram-order=0"],
    ["evaluate", "stray", "--input", "i", "--output", "o"],
    ["split", "--input", "i", "--output", "o", "--config", "missing.json"],
    ["--frobnicate", "filter", "--input", "i", "--output", "o"],
    ["pipeline", "--input", "i", "--output", "o", "--beam-size", "3", "--top-k=0"],
    ["--", "decode", "--input", "i", "--output", "o", "--model", "m", "--seed", "4"],
]


def _parse_outcome(argv, capsys):
    """What parse_args gives for ``argv``: the config or exit code, and the
    bytes it printed to stdout and stderr."""
    try:
        config, code = parse_args(list(argv)), None
    except SystemExit as exit:
        config, code = None, exit.code
    captured = capsys.readouterr()
    return config, code, captured.out, captured.err


class TestOneSubparser:
    def test_a_leading_command_builds_only_its_subparser(self):
        for command in COMMANDS:
            assert list(_build_parser([command, "--help"])[1]) == [command]
        for argv in ([], ["-h", "decode"], ["transmogrify"]):
            assert list(_build_parser(argv)[1]) == list(COMMANDS)

    @pytest.mark.parametrize("argv", _ORACLE_ARGVS, ids=lambda argv: " ".join(argv) or "none")
    def test_parsing_equals_the_parser_of_every_command(self, capsys, monkeypatch, argv):
        one = _parse_outcome(argv, capsys)
        build_every = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda argv=(): build_every())
        assert _parse_outcome(argv, capsys) == one
        assert one[1] in (None, 0, 2)


def _documented_command_lines():
    """The command lines of the README's "A typical run" block, and the one
    ``demos/04_full_pipeline.py`` prints, without redirections."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    lines = readme.split("A typical run:\n\n```\n", 1)[1].split("```", 1)[0].splitlines()
    demo = ast.parse((ROOT / "demos" / "04_full_pipeline.py").read_text(encoding="utf-8"))
    calls = [stmt.value for stmt in demo.body  # module-level calls, in source order
             if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)]
    printed = "\n".join(
        call.args[0].value for call in calls
        if getattr(call.func, "id", None) == "print" and call.args
        and isinstance(call.args[0], ast.Constant) and isinstance(call.args[0].value, str)
    )
    lines += [line for line in printed.replace("\\\n", " ").splitlines()
              if line.lstrip().startswith("santrauka ")]
    return [shlex.split(line.split(">")[0])[1:] for line in lines]


@pytest.mark.parametrize("argv", _documented_command_lines(), ids=lambda argv: argv[0])
def test_documented_command_lines_parse(argv):
    assert parse_args(argv).command == argv[0]


class TestParseArgs:
    def test_decode_flags(self, tmp_path):
        model = tmp_path / "m.json"
        config = parse_args(
            [
                "decode",
                "--input", "in.jsonl",
                "--output", "out.jsonl",
                "--model", str(model),
                "--beam-size", "10",
                "--no-repeat-ngram-size", "2",
            ]
        )
        decode_config = config.decode_config()
        assert decode_config.beam_size == 10
        assert decode_config.no_repeat_ngram_size == 2

    @pytest.mark.parametrize("argv", [
        ["--", "decode", "--input", "i", "--output", "o", "--model", "m", "--top-k", "3"],
        ["--", "--", "decode", "--input", "i", "--output", "o", "--model", "m", "--top-k", "3"],
    ])
    def test_a_double_dash_before_the_command_changes_nothing(self, argv):
        assert parse_args(argv) == parse_args([arg for arg in argv if arg != "--"])

    @pytest.mark.parametrize("flag", ["--input", "--output", "--model"])
    def test_a_double_dash_flag_value_is_kept(self, flag):
        argv = ["decode", "--input", "i", "--output", "o", "--model", "m", f"{flag}=--"]
        assert getattr(parse_args(argv), flag[2:]) == "--"

    def test_top_p_one_allowed(self):
        config = parse_args(
            ["decode", "--input", "i", "--output", "o", "--model", "m", "--top-p", "1.0"]
        )
        assert config.top_p == 1.0

    def test_filter_threshold_flag(self):
        config = parse_args(
            ["filter", "--input", "i", "--output", "o", "--max-overlap-ratio", "0.2"]
        )
        assert config.filter_config().max_overlap_ratio == 0.2

    def test_zero_disables_optional_filters(self):
        config = parse_args(
            [
                "decode", "--input", "i", "--output", "o", "--model", "m",
                "--top-k", "0", "--top-p", "0", "--no-repeat-ngram-size", "0",
            ]
        )
        assert config.top_k is None
        assert config.top_p is None
        assert config.no_repeat_ngram_size is None

    def test_documented_defaults(self):
        config = parse_args(["filter", "--input", "i", "--output", "o"])
        assert config.beam_size == 10
        assert config.no_repeat_ngram_size == 2
        assert config.temperature == 1.0
        assert config.n_validation == 4096

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["filter", "--input", "i", "--output", "o", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_type_mismatch_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["decode", "--input", "i", "--output", "o", "--model", "m",
                        "--beam-size", "many"])
        assert exc.value.code == 2

    def test_missing_required_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["filter", "--input", "i"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            parse_args(["decode", "--input", "i", "--output", "o"])  # no --model
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            parse_args(["decode", "--output", "o", "--model", "m"])  # no --input
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: decode requires --input\n")

    @pytest.mark.parametrize("name, value, message", [
        ("workers", 0, "--workers must be at least 1"),
        ("n_validation", -1, "--n-validation must be nonnegative"),
    ])
    def test_out_of_range_count_is_usage_error(self, tmp_path, capsys, name, value, message):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({name: value}), encoding="utf-8")
        flag = f"--{name.replace('_', '-')}={value}"
        for extra in ([flag], ["--config", str(config_path)]):
            with pytest.raises(SystemExit) as exc:
                parse_args([*_required_args("pipeline"), *extra])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: ")
            assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("command", ["train-lm", "pipeline"])
    @pytest.mark.parametrize("name, value, message", [
        ("ngram_order", 0, "order must be at least 1"),
        ("alpha", -1.0, "alpha must be finite and nonnegative"),
    ])
    def test_out_of_range_model_option_is_usage_error(self, tmp_path, capsys, command, name,
                                                      value, message):
        # the input does not exist: the value is refused before any ingest
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({name: value}), encoding="utf-8")
        flag = f"--{name.replace('_', '-')}"
        for extra in ([f"{flag}={value}"], ["--config", str(config_path)]):
            with pytest.raises(SystemExit) as exc:
                main([*_required_args(command), *extra])
            assert exc.value.code == 2
            # the library's message, its parameter's name swapped for the flag
            rule = message.partition(" ")[2]
            assert capsys.readouterr().err.endswith(f"error: {flag} {rule}\n")

    @pytest.mark.parametrize("name, value, message", [
        ("min_summary_chars", -1, "--min-summary-chars must be nonnegative"),
        ("min_body_chars", -1, "--min-body-chars must be nonnegative"),
        ("min_ratio", -1.0, "--min-ratio must be nonnegative"),
        ("max_overlap_ratio", 1.5, "--max-overlap-ratio must lie in [0, 1]"),
        ("beam_size", 0, "--beam-size must be at least 1"),
        ("max_length", 0, "--max-length must be at least 1"),
        ("temperature", 0.0, "--temperature must be positive"),
        ("top_k", -1, "--top-k must be at least 1"),
        ("top_p", 1.5, "--top-p must lie in (0, 1]"),
        ("no_repeat_ngram_size", -1, "--no-repeat-ngram-size must be at least 1"),
        ("seed", -1, "--seed must be nonnegative"),
    ])
    def test_out_of_range_option_names_its_flag(self, tmp_path, capsys, name, value,
                                                message):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({name: value}), encoding="utf-8")
        flag = f"--{name.replace('_', '-')}={value}"
        for extra in ([flag], ["--config", str(config_path)]):
            with pytest.raises(SystemExit) as exc:
                parse_args([*_required_args("pipeline"), *extra])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_invalid_domain_value_is_usage_error(self):
        with pytest.raises(SystemExit):
            parse_args(["filter", "--input", "i", "--output", "o",
                        "--max-overlap-ratio", "1.5"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            parse_args(["transmogrify"])

    @pytest.mark.parametrize("argv", [
        ["decode", "--input", "i", "--output", "o", "--model", "m", "--method", "sample",
         "--seed=-1"],
        ["split", "--input", "i", "--output", "o", "--seed=-1"],
    ], ids=["decode", "split"])
    def test_negative_seed_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        assert "seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "pipeline"])
    def test_unregistered_stemmer_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                  command):
        argv = [command, "--input", "i", "--output", "o"]
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"stemmer": "porter"}), encoding="utf-8")
        for extra in (["--stemmer", "porter"], ["--config", str(config_path)]):
            with pytest.raises(SystemExit) as exc:
                parse_args([*argv, *extra])
            assert exc.value.code == 2
            assert "unknown stemmer 'porter'" in capsys.readouterr().err
        # the names come from the metrics registry, plugins included
        monkeypatch.setitem(sys.modules["santrauka.metrics"]._STEMMERS, "porter", str.lower)
        assert parse_args([*argv, "--stemmer", "porter"]).stemmer == "porter"


class TestConfigFilePrecedence:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"beam_size": 4, "temperature": 0.5}), encoding="utf-8"
        )
        config = parse_args(
            [
                "pipeline", "--input", "i", "--output", "o",
                "--config", str(config_path), "--temperature", "0.8",
            ]
        )
        assert config.beam_size == 4          # from file
        assert config.temperature == 0.8      # flag wins
        assert config.alpha == 1.0            # default

    def test_unknown_config_key_rejected(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"beem_size": 4}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            parse_args(["filter", "--input", "i", "--output", "o",
                        "--config", str(config_path)])
        assert exc.value.code == 2

    def test_config_file_holding_an_array_is_a_usage_error(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps([{"seed": 3}]), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            parse_args(["filter", "--input", "i", "--output", "o",
                        "--config", str(config_path)])
        assert exc.value.code == 2
        assert "--config file must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        pytest.param(b"[" * 100_000, id="nested"),
        pytest.param(b'{"seed": ' + b"1" * 5000 + b"}", id="huge-int"),
        pytest.param(b'{"stemmer": "\xff"}', id="not-utf8"),
    ])
    def test_unparsable_config_file_is_a_usage_error(self, tmp_path, capsys, content):
        config_path = tmp_path / "run.json"
        config_path.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            parse_args(["filter", "--input", "i", "--output", "o",
                        "--config", str(config_path)])
        assert exc.value.code == 2
        assert "cannot read --config file" in capsys.readouterr().err

    def test_config_can_set_flagless_fields(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"sample_within_beam": True}), encoding="utf-8")
        config = parse_args(
            ["decode", "--input", "i", "--output", "o", "--model", "m",
             "--config", str(config_path)]
        )
        assert config.sample_within_beam is True


    def write_config(self, tmp_path, text):
        config_path = tmp_path / "run.json"
        config_path.write_text(text, encoding="utf-8")
        return ["pipeline", "--input", "i", "--output", "o", "--config", str(config_path)]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("workers", "2"),
            ("seed", 1.5),
            ("seed", True),
            ("beam_size", 2.0),
            ("seed", None),
            ("temperature", "1"),
            ("temperature", False),
            ("sample_within_beam", 1),
            ("stemmer", 3),
            ("input", ["i"]),
        ],
    )
    def test_mistyped_config_value_is_usage_error(self, tmp_path, capsys, key, value):
        argv = self.write_config(tmp_path, json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        assert f"--config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, expected",
        [("temperature", 2, 2), ("top_k", None, None), ("vocab", None, None),
         ("no_repeat_ngram_size", None, None), ("top_p", 0, None)],
    )
    def test_config_accepts_ints_for_floats_and_null_for_optionals(
        self, tmp_path, key, value, expected
    ):
        config = parse_args(self.write_config(tmp_path, json.dumps({key: value})))
        assert getattr(config, key) == expected

    @pytest.mark.parametrize("command, key", [
        ("filter", "input"), ("filter", "output"), ("decode", "model"), ("pipeline", "vocab"),
    ])
    @pytest.mark.parametrize("path, shown", [
        ("a\ud800.jsonl", '"a\\ud800.jsonl"'), ("a\0.jsonl", '"a\\u0000.jsonl"'),
    ])
    def test_config_path_no_file_name_can_be_is_usage_error(
        self, tmp_path, capsys, command, key, path, shown
    ):
        # valid JSON, yet no file has this name: it used to fail the run with
        # exit 1 and a data error that named neither the key nor the flag
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({key: path}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            parse_args([*_required_args(command, but=key), "--config", str(config_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--config key {key!r} must be a path the file system can hold, got {shown}" in err

    def test_config_path_with_an_escaped_byte_names_its_file(self, tmp_path, monkeypatch):
        # U+DCFF is how Python names the byte 0xff of a file name, as in argv
        articles = tmp_path / os.fsdecode(b"a\xff.jsonl")
        write_jsonl(articles, synthetic_articles(4))
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"input": str(articles)}), encoding="utf-8")
        # the report echoes the path, which a stdout in UTF-8 mode prints as its byte
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                                                            errors="surrogateescape"))
        argv = ["filter", "--config", str(config_path), "--output", str(tmp_path / "c.jsonl")]
        assert main(argv) == 0
        assert main(["filter", "--input", str(articles),
                     "--output", str(tmp_path / "a.jsonl")]) == 0
        assert (tmp_path / "c.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()
        assert (tmp_path / "c.jsonl").read_bytes()


class TestUndecodableFileNames:
    """A file name byte that is not UTF-8 is a surrogate in Python (U+DCFF
    for 0xff); reports and records echo it as its JSON escape, so a strict
    UTF-8 stdout or output file takes every echo."""

    @staticmethod
    def named(tmp_path, stem: bytes, records) -> str:
        return write_jsonl(tmp_path / os.fsdecode(stem + b"\xff.jsonl"), records)

    def argv_and_echo(self, tmp_path, command):
        """The command's argv over an input named with byte 0xff, and where
        its config echo goes: "stdout" or a file."""
        out = str(tmp_path / "out.jsonl")
        if command in ("filter", "stats", "split", "train-lm", "pipeline"):
            path = self.named(tmp_path, b"corpus", synthetic_articles(12))
        elif command == "evaluate":
            path = self.named(tmp_path, b"pairs", [{"id": 1, "candidate": "a b",
                                                    "reference": "a c"}])
        else:
            path = self.named(tmp_path, b"requests", [{"id": 1, "prompt": "kalba"}])
        argv = [command, "--input", path, "--output", out]
        if command == "decode":
            argv += ["--model", str(train_model_file(tmp_path))]
        if command in ("split", "pipeline"):
            argv += ["--n-validation", "2"]
        return argv, path, "stdout" if command in ("filter", "split", "train-lm",
                                                   "evaluate") else out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_the_echo_names_the_file_by_its_bytes(self, tmp_path, monkeypatch, command):
        argv, path, echo = self.argv_and_echo(tmp_path, command)
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")  # strict, as under PYTHONIOENCODING
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        stdout.flush()
        text = (stdout.buffer.getvalue().decode("utf-8") if echo == "stdout"
                else Path(echo).read_text(encoding="utf-8"))
        assert "\\udcff" in text
        # decode writes one record a line, each with its config echo
        first = json.loads(text.splitlines()[0] if command == "decode" else text)
        config = first["config_echo" if command == "decode" else "config"]
        assert os.fsencode(config["input"]) == os.fsencode(path)

    def test_other_text_is_not_escaped(self, tmp_path, capsys):
        input_path = write_jsonl(tmp_path / "corpusą.jsonl", synthetic_articles(12))
        assert main(["filter", "--input", input_path, "--output", str(tmp_path / "o")]) == 0
        assert '"input": "' + input_path + '"' in capsys.readouterr().out


class TestNonFiniteFloats:
    @pytest.mark.parametrize(
        "flag, value",
        [("--temperature", "nan"), ("--temperature", "inf"), ("--alpha", "nan"),
         ("--min-ratio", "nan"), ("--alpha", "-inf")],
    )
    def test_flag_is_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            parse_args(["pipeline", "--input", "i", "--output", "o", f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"{flag} must be a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ['{"temperature": NaN}', '{"alpha": Infinity}'])
    def test_config_value_is_usage_error(self, tmp_path, text):
        config_path = tmp_path / "run.json"
        config_path.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            parse_args(["pipeline", "--input", "i", "--output", "o",
                        "--config", str(config_path)])
        assert exc.value.code == 2

    def test_config_integer_too_large_for_a_float_is_usage_error(self, tmp_path, capsys):
        config_path = tmp_path / "run.json"
        config_path.write_text('{"alpha": 1%s}' % ("0" * 400), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            parse_args(["pipeline", "--input", "i", "--output", "o",
                        "--config", str(config_path)])
        assert exc.value.code == 2
        assert "--alpha must be a finite number" in capsys.readouterr().err


@st.composite
def _vocab_and_texts(draw):
    """A vocabulary of single characters, with or without unk, sometimes
    with a longer token too, and texts over a wider alphabet, some of them
    shorter than the prompt limit."""
    chars = draw(st.lists(st.sampled_from("abcdeą"), min_size=1, max_size=5, unique=True))
    tokens = chars + draw(st.sampled_from([[], ["ab"]]))
    unk = draw(st.sampled_from([None, "<unk>"]))
    vocab = Vocabulary(tokens + ["<eos>"] + ([unk] if unk else []),
                       [-1.0] * len(tokens) + [0.0] * (2 if unk else 1), eos="<eos>", unk=unk)
    texts = draw(st.lists(st.text("abcdeąx", max_size=12), max_size=6))
    return vocab, texts, draw(st.integers(1, 8))


class TestPromptHeads:
    @settings(max_examples=300, deadline=None)
    @given(case=_vocab_and_texts())
    def test_prompts_and_errors_equal_cutting_whole_segmentations(self, case):
        """Whether ``_decode`` segments a text's head or all of it, its
        prompts and errors are those of segmenting everything a prompt may
        read, then cutting."""
        vocab, texts, limit = case
        expected_prompts, expected_errors = [], {}
        for i, text in enumerate(texts):
            try:
                try:
                    ids = viterbi_segment(text, vocab).ids
                except ValueError:
                    if vocab.max_token_len > 1:
                        raise
                    # a prompt reads no character past a one-character
                    # vocabulary's limit: only an uncovered head fails
                    ids = viterbi_segment(text[:limit], vocab).ids
                expected_prompts.append(ids[:limit])
            except ValueError as err:
                expected_errors[i] = f"ValueError: {err}"
        seen = []

        def batch_decode(model, prompts, config, workers, errors):
            seen.extend(prompts)
            return [None] * len(prompts)

        config = RunConfig("decode", input="i", output="o", model="m")
        model = SimpleNamespace(vocab=vocab)
        with mock.patch.object(cli, "batch_decode", batch_decode):
            _, errors = cli._decode(config, model, texts, limit)
        assert seen == expected_prompts
        assert errors == expected_errors


def _text(min_size=0):
    return st.text(min_size=min_size, max_size=12)


_run_configs = st.fixed_dictionaries(dict(
    command=st.sampled_from(COMMANDS),
    input=_text(1),
    output=st.none() | _text(1),
    model=st.none() | _text(1),
    vocab=st.none() | _text(),
    seed=st.integers(min_value=0),
    workers=st.integers(min_value=1),
    method=st.sampled_from(METHODS),
    beam_size=st.integers(min_value=1),
    top_k=st.none() | st.integers(min_value=1),
    top_p=st.none() | st.floats(min_value=0, max_value=1, exclude_min=True),
    temperature=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
    no_repeat_ngram_size=st.none() | st.integers(min_value=1),
    max_length=st.integers(min_value=1),
    sample_within_beam=st.booleans(),
    ngram_order=st.integers(min_value=1),
    alpha=st.floats(min_value=0, allow_infinity=False),
    n_validation=st.integers(min_value=0),
    stemmer=st.sampled_from(["identity", "lithuanian-light"]),
    min_summary_chars=st.integers(min_value=0),
    min_body_chars=st.integers(min_value=0),
    min_ratio=st.floats(min_value=0, allow_infinity=False),
    max_overlap_ratio=st.floats(min_value=0, max_value=1),
)).filter(  # a RunConfig refuses these at construction
    lambda c: (c["output"] or c["command"] == "stats")
    and (c["model"] or c["command"] != "decode")
).map(  # the fields a command does not read keep their defaults
    lambda c: RunConfig(c["command"], **{name: c[name] for name in SCOPE[c["command"]]})
)


class TestRenderRoundTrip:
    CONFIGS = [
        RunConfig(command="filter", input="a.jsonl", output="b.jsonl"),
        RunConfig(command="decode", input="i", output="o", model="m", beam_size=7,
                  top_k=50, method="beam", sample_within_beam=True, seed=3),
        RunConfig(command="pipeline", input="i", output="o", vocab="v",
                  top_p=0.9, temperature=0.25, no_repeat_ngram_size=None,
                  n_validation=16, stemmer="lithuanian-light", workers=2,
                  max_length=12, alpha=0.0, min_ratio=3.5),
        RunConfig(command="evaluate", input="i", output="o", method="sample",
                  stemmer="lithuanian-light"),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.command)
    def test_round_trip(self, config):
        assert parse_args(render_args(config)) == config

    @settings(max_examples=200, deadline=None)
    @given(config=_run_configs)
    @example(config=RunConfig(command="pipeline", input="-a.jsonl", output="--o",
                              vocab="--v", alpha=0.0))
    @example(config=RunConfig(command="filter", input="0", output="--"))
    @example(config=RunConfig(command="stats", input="--", output="--"))
    def test_round_trip_property(self, config):
        assert parse_args(render_args(config)) == config


class TestFilterCommand:
    def test_writes_kept_and_reports(self, tmp_path, capsys):
        records = synthetic_articles(6)
        records.append({"source": "bad.lt", "summary": "short", "body": "tiny"})
        input_path = write_jsonl(tmp_path / "in.jsonl", records)
        output_path = tmp_path / "kept.jsonl"
        code = main(["filter", "--input", input_path, "--output", str(output_path)])
        assert code == 0
        kept_lines = output_path.read_text(encoding="utf-8").splitlines()
        assert len(kept_lines) == 6
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["kept"] == 6
        assert report["report"]["rejected_by_reason"]["summary_too_short"] == 1
        assert report["config"]["command"] == "filter"

    @pytest.mark.parametrize("command", ["filter", "train-lm"])
    @pytest.mark.parametrize("key", ["summary", "body", "source", "url"])
    def test_a_lone_surrogate_fails_its_line_alone(self, tmp_path, capsys, command, key):
        first, second = synthetic_articles(2)
        first[key] += "\ud800"
        input_path = tmp_path / "in.jsonl"
        # json.dumps escapes the surrogate, as a JSON writer would
        input_path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n",
                              encoding="utf-8")
        output_path = tmp_path / "out.json"
        assert main([command, "--input", str(input_path), "--output", str(output_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ingest_errors"] == 1
        if command == "filter":
            kept = output_path.read_text(encoding="utf-8").splitlines()
            assert [json.loads(line)["summary"] for line in kept] == [second["summary"]]
        else:
            assert report["sequences"] == 1

    def test_input_file_not_mutated(self, tmp_path):
        input_path = tmp_path / "in.jsonl"
        write_jsonl(input_path, synthetic_articles(3))
        before = input_path.read_bytes()
        main(["filter", "--input", str(input_path), "--output", str(tmp_path / "o.jsonl")])
        assert input_path.read_bytes() == before


def overlap_articles():
    """Articles that pass the length rules and share runs of 3 to 8
    characters (here and there in the summary) with their bodies, so the
    overlap rule decides them at, just above and just below its threshold."""
    filler = " ".join(["noru", "purvo", "rytu", "sausu", "tyru", "vyru", "zuvys"] * 3)
    records = []
    for length in (20, 25):  # 20 chars: k = 4 at r = 0.2; 25 chars: k = 7 at r = 0.28
        summary = "bcdefghijklmbcdefghijklm"[:length - 1] + "q"
        for shared in range(3, 9):
            for start in (0, (length - shared) // 2, length - shared):
                records.append({
                    "source": f"s{length}.lt",
                    "published_at": f"2020-0{1 + shared % 9}-1{start % 10}",
                    "summary": summary,
                    "body": f"{filler} {summary[start:start + shared]} {filler}",
                })
    return records


class TestOverlapRejects:
    @pytest.mark.parametrize("ratio", ["0.2", "0.28"])
    def test_reports_hold_the_measured_rule(self, tmp_path, capsys, ratio):
        records = overlap_articles()
        rejects = sum(
            longest_common_substring_len(r["summary"], r["body"]) / len(r["summary"])
            >= float(ratio)
            for r in records
        )
        assert 0 < rejects < len(records)
        input_path = write_jsonl(tmp_path / "in.jsonl", records)
        kept, stats = tmp_path / "kept.jsonl", tmp_path / "stats.json"
        flags = ["--input", input_path, "--max-overlap-ratio", ratio]
        assert main(["filter", *flags, "--output", str(kept)]) == 0
        filter_report = json.loads(capsys.readouterr().out)["report"]
        assert main(["stats", *flags, "--output", str(stats)]) == 0
        table = capsys.readouterr().out
        assert filter_report == json.loads(stats.read_text(encoding="utf-8"))["report"]
        assert filter_report["rejected_by_reason"] == {
            "summary_too_short": 0, "body_too_short": 0, "body_to_summary_ratio": 0,
            "overlap_too_high": rejects,
        }
        assert filter_report["kept"] == len(records) - rejects
        assert len(kept.read_text(encoding="utf-8").splitlines()) == len(records) - rejects
        assert f"overlap_too_high: {rejects}" in table


class TestStatsCommand:
    def test_prints_aligned_table(self, tmp_path, capsys):
        input_path = write_jsonl(tmp_path / "in.jsonl", synthetic_articles(5))
        code = main(["stats", "--input", input_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "Website" in out and "alpha.lt" in out

    def test_optional_json_report(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", synthetic_articles(5))
        report_path = tmp_path / "report.json"
        main(["stats", "--input", input_path, "--output", str(report_path)])
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["report"]["kept"] == 5


class TestSplitCommand:
    def test_deterministic_split_files(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", synthetic_articles(10))
        base = tmp_path / "split.jsonl"
        code = main(["split", "--input", input_path, "--output", str(base),
                     "--n-validation", "3", "--seed", "5"])
        assert code == 0
        train = (tmp_path / "split.train.jsonl").read_text(encoding="utf-8")
        valid = (tmp_path / "split.valid.jsonl").read_text(encoding="utf-8")
        assert len(train.splitlines()) == 7
        assert len(valid.splitlines()) == 3
        main(["split", "--input", input_path, "--output", str(tmp_path / "again.jsonl"),
              "--n-validation", "3", "--seed", "5"])
        assert (tmp_path / "again.train.jsonl").read_text(encoding="utf-8") == train
        assert (tmp_path / "again.valid.jsonl").read_text(encoding="utf-8") == valid

    def test_oversized_validation_fails(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", synthetic_articles(4))
        code = main(["split", "--input", input_path, "--output", str(tmp_path / "s.jsonl"),
                     "--n-validation", "10"])
        assert code == 1


def train_model_file(tmp_path, vocab=None):
    input_path = write_jsonl(tmp_path / "train.jsonl", synthetic_articles(20))
    model_path = tmp_path / "model.json"
    code = main(["train-lm", "--input", input_path, "--output", str(model_path),
                 "--ngram-order", "3", "--alpha", "1.0",
                 *(["--vocab", str(vocab)] if vocab else [])])
    assert code == 0
    return model_path


def summary_vocab_file(tmp_path):
    """A vocabulary of the summary letters of synthetic_articles, without unk,
    so body text and other letters cannot be segmented."""
    letters = sorted(set("deima gale kalba diena miela balta"))
    path = tmp_path / "summary.vocab"
    Vocabulary(letters + ["<eos>"], [-1.0] * len(letters) + [0.0], eos="<eos>").save(path)
    return path


class TestTrainAndDecodeCommands:
    def test_train_produces_loadable_model(self, tmp_path):
        model_path = train_model_file(tmp_path)
        model = NGramModel.load(model_path)
        assert model.order == 3
        assert len(model.vocab) > 2

    def test_the_model_file_is_the_segmented_texts_model(self, tmp_path):
        """Without --vocab the summaries are counted as arrays, unsegmented;
        the file holds the bytes of segmenting them with the vocabulary
        built from them and training on that."""
        summaries = ["kalba diena", "ąčę \U0001F600 x\x00y", "a" * 50, "diena ž"]
        records = [{"source": "x", "summary": text, "body": "b"} for text in summaries]
        input_path = write_jsonl(tmp_path / "train.jsonl", records)
        model_path = tmp_path / "model.json"
        assert main(["train-lm", "--input", input_path, "--output", str(model_path),
                     "--ngram-order", "4", "--alpha", "0.5"]) == 0
        vocab = char_vocabulary(summaries)
        oracle = train_ngram([viterbi_segment(t, vocab) for t in summaries], 4, 0.5, vocab)
        expected = json.dumps(oracle.to_dict(), ensure_ascii=False)
        assert model_path.read_text(encoding="utf-8") == expected

    def test_decode_results_are_deterministic(self, tmp_path):
        model_path = train_model_file(tmp_path)
        requests = [{"id": i, "prompt": "kalba diena"} for i in range(3)]
        input_path = write_jsonl(tmp_path / "req.jsonl", requests)
        output_path = tmp_path / "results.jsonl"
        argv = ["decode", "--input", input_path, "--model", str(model_path),
                "--output", str(output_path), "--method", "sample", "--top-k", "5",
                "--max-length", "30", "--seed", "9"]
        assert main(argv) == 0
        first_bytes = output_path.read_bytes()
        assert main(argv) == 0
        assert output_path.read_bytes() == first_bytes
        first = json.loads(first_bytes.decode("utf-8").splitlines()[0])
        assert {"id", "text", "score", "steps", "config_echo"} <= set(first)

    def test_decode_bad_request_lines_recorded(self, tmp_path):
        model_path = train_model_file(tmp_path)
        input_path = tmp_path / "req.jsonl"
        input_path.write_text(
            '{"id": 1, "prompt": "kalba"}\nnot json\n{"id": 2}\n', encoding="utf-8"
        )
        output_path = tmp_path / "res.jsonl"
        assert main(["decode", "--input", str(input_path), "--model", str(model_path),
                     "--output", str(output_path)]) == 0
        lines = [json.loads(l) for l in output_path.read_text(encoding="utf-8").splitlines()]
        errors = [l for l in lines if "error" in l]
        assert len(errors) == 2
        assert len(lines) == 3

    def test_decode_invalid_utf8_line_is_a_line_error(self, tmp_path):
        model_path = train_model_file(tmp_path)
        input_path = tmp_path / "req.jsonl"
        input_path.write_bytes(
            b'{"id": 1, "prompt": "kalba"}\r\n'
            b'{"id": 2, "prompt": "\xff"}\r\n'
            b'{"id": 3, "prompt": "diena"}\n'
        )
        output_path = tmp_path / "res.jsonl"
        assert main(["decode", "--input", str(input_path), "--model", str(model_path),
                     "--output", str(output_path)]) == 0
        lines = [json.loads(l) for l in output_path.read_text(encoding="utf-8").splitlines()]
        assert lines[0] == {"line": 2, "error": "invalid UTF-8"}
        assert [l["id"] for l in lines[1:]] == [1, 3]

    def test_decode_lone_surrogate_line_is_a_line_error(self, tmp_path):
        model_path = train_model_file(tmp_path)
        input_path = tmp_path / "req.jsonl"
        input_path.write_text('{"id": 1, "prompt": "kalba"}\n'
                              '{"id": 2, "prompt": "ka\\ud800"}\n'
                              '{"id": "\\udfff", "prompt": "diena"}\n', encoding="utf-8")
        output_path = tmp_path / "res.jsonl"
        assert main(["decode", "--input", str(input_path), "--model", str(model_path),
                     "--output", str(output_path)]) == 0
        lines = [json.loads(l) for l in output_path.read_text(encoding="utf-8").splitlines()]
        assert lines[:2] == [{"line": 2, "error": "key 'prompt' holds lone surrogate '\\ud800'"},
                             {"line": 3, "error": "key 'id' holds lone surrogate '\\udfff'"}]
        assert [l["id"] for l in lines[2:]] == [1]

    def test_unsegmentable_prompt_fails_alone(self, tmp_path):
        model_path = train_model_file(tmp_path, vocab=summary_vocab_file(tmp_path))
        requests = [{"id": 1, "prompt": "kalba"}, {"id": 2, "prompt": "kalba ž"},
                    {"id": 3, "prompt": "diena"}]
        input_path = write_jsonl(tmp_path / "req.jsonl", requests)
        output_path = tmp_path / "res.jsonl"
        assert main(["decode", "--input", input_path, "--model", str(model_path),
                     "--output", str(output_path), "--max-length", "10"]) == 0
        lines = [json.loads(l) for l in output_path.read_text(encoding="utf-8").splitlines()]
        assert [l["id"] for l in lines] == [1, 2, 3]
        assert lines[1] == {"id": 2, "error": "ValueError: text cannot be segmented: "
                            "uncovered characters and no unk token defined"}
        assert "text" in lines[0] and "text" in lines[2]

    def test_non_string_prompt_is_a_line_error(self, tmp_path):
        model_path = train_model_file(tmp_path)
        input_path = write_jsonl(tmp_path / "req.jsonl",
                                 [{"id": 1, "prompt": "kalba"}, {"id": 99, "prompt": 5}])
        output_path = tmp_path / "res.jsonl"
        assert main(["decode", "--input", input_path, "--model", str(model_path),
                     "--output", str(output_path)]) == 0
        lines = [json.loads(l) for l in output_path.read_text(encoding="utf-8").splitlines()]
        assert lines[0] == {"line": 2, "error": "key 'prompt' must be a string"}
        assert [l["id"] for l in lines[1:]] == [1]

    def test_decode_nested_request_line_is_a_line_error(self, tmp_path):
        model_path = train_model_file(tmp_path)
        input_path = tmp_path / "req.jsonl"
        input_path.write_text('{"id": 1, "prompt": "kalba"}\n' + "[" * 100_000 + "\n",
                              encoding="utf-8")
        output_path = tmp_path / "res.jsonl"
        assert main(["decode", "--input", str(input_path), "--model", str(model_path),
                     "--output", str(output_path)]) == 0
        lines = [json.loads(l) for l in output_path.read_text(encoding="utf-8").splitlines()]
        assert lines[0]["line"] == 2
        assert lines[0]["error"].startswith("invalid JSON: maximum recursion depth")
        assert [l["id"] for l in lines[1:]] == [1]

    def test_nested_model_file_is_a_data_error(self, tmp_path, capsys):
        model_path = tmp_path / "nested.json"
        model_path.write_text('{"counts": ' + "[" * 100_000, encoding="utf-8")
        requests = write_jsonl(tmp_path / "req.jsonl", [{"id": 1, "prompt": "kalba"}])
        output_path = tmp_path / "res.jsonl"
        assert main(["decode", "--input", requests, "--model", str(model_path),
                     "--output", str(output_path)]) == 1
        assert "error: data: maximum recursion depth" in capsys.readouterr().err
        assert not output_path.exists()

    def test_bad_vocab_log_prob_is_a_data_error(self, tmp_path, capsys):
        vocab_path = tmp_path / "bad.vocab"
        input_path = write_jsonl(tmp_path / "train.jsonl", synthetic_articles(5))
        output_path = tmp_path / "model.json"
        for text, message in [
            ("a\t-1.0\nb\tabc\n<eos>\t0.0\n", "line 2: log_prob 'abc' is not a number"),
            ("a\t-1.0\n<eos>\t0.0\na\t-2.0\n", "line 3: duplicate token 'a'"),
            ("a\t0.5\n<eos>\t0.0\n", "line 1: log_prob '0.5' must be <= 0 and not NaN"),
            ("a\t-1.0\nb\tNaN\n<eos>\t0.0\n", "line 2: log_prob 'NaN' must be <= 0"),
            ("a\t-1.0\n\t-2.0\n<eos>\t0.0\n", "line 2: empty token"),
            ('{"eos": }\n<eos>\t0.0\n', "line 1: Expecting value"),
            ('{"bos": "<s>"}\n<eos>\t0.0\n', "line 1: unknown special roles: ['bos']"),
            ('{"eos": 3}\n<eos>\t0.0\n', "line 1: key 'specials' must map roles"),
        ]:
            vocab_path.write_text(text, encoding="utf-8")
            assert main(["train-lm", "--input", input_path, "--output", str(output_path),
                         "--vocab", str(vocab_path)]) == 1
            err = capsys.readouterr().err
            assert f"error: data: {message}" in err
            assert "Traceback" not in err
            assert not output_path.exists()

    def test_missing_model_fails_without_output(self, tmp_path):
        requests = write_jsonl(tmp_path / "req.jsonl", [{"id": 1, "prompt": "x"}])
        output_path = tmp_path / "res.jsonl"
        code = main(["decode", "--input", requests, "--model", str(tmp_path / "no.json"),
                     "--output", str(output_path)])
        assert code == 1
        assert not output_path.exists()


class TestEvaluateCommand:
    def test_per_record_and_aggregate(self, tmp_path, capsys):
        pairs = [
            {"id": 1, "candidate": "the cat sat", "reference": "the cat ate"},
            {"id": 2, "candidate": "a b c d", "reference": "a c b d"},
            {"id": 3, "candidate": "x", "reference": ""},
        ]
        input_path = write_jsonl(tmp_path / "pairs.jsonl", pairs)
        output_path = tmp_path / "scores.jsonl"
        code = main(["evaluate", "--input", input_path, "--output", str(output_path)])
        assert code == 0
        lines = [json.loads(l) for l in output_path.read_text(encoding="utf-8").splitlines()]
        scored = [l for l in lines if "rouge1" in l]
        assert len(scored) == 2
        assert scored[0]["rouge1"]["f1"] == pytest.approx(2 / 3)
        payload = json.loads(capsys.readouterr().out)
        assert payload["skipped"] == 1
        assert payload["summary"]["count"] == 2
        formatted = payload["summary"]["rouge1_f"]["formatted"]
        assert "(" in formatted and ")" in formatted

    def test_invalid_utf8_line_is_skipped(self, tmp_path, capsys):
        input_path = tmp_path / "pairs.jsonl"
        input_path.write_bytes(
            b'{"id": 1, "candidate": "a b", "reference": "a c"}\n'
            b'{"id": 2, "candidate": "\xc5", "reference": "a"}\n'
            b'{"id": 3, "candidate": "a", "reference": "a"}\n'
        )
        output_path = tmp_path / "scores.jsonl"
        assert main(["evaluate", "--input", str(input_path), "--output", str(output_path)]) == 0
        lines = [json.loads(l) for l in output_path.read_text(encoding="utf-8").splitlines()]
        assert lines[0] == {"line": 2, "error": "invalid UTF-8"}
        assert [l["id"] for l in lines[1:]] == [1, 3]
        payload = json.loads(capsys.readouterr().out)
        assert payload["skipped"] == 1
        assert payload["summary"]["count"] == 2

    def test_lone_surrogate_line_is_skipped(self, tmp_path, capsys):
        input_path = tmp_path / "pairs.jsonl"
        input_path.write_text('{"id": 1, "candidate": "a b", "reference": "a c"}\n'
                              '{"id": 2, "candidate": "a", "reference": "\\udc80 a"}\n',
                              encoding="utf-8")
        output_path = tmp_path / "scores.jsonl"
        assert main(["evaluate", "--input", str(input_path), "--output", str(output_path)]) == 0
        lines = [json.loads(l) for l in output_path.read_text(encoding="utf-8").splitlines()]
        assert lines[0] == {"line": 2, "error": "key 'reference' holds lone surrogate '\\udc80'"}
        assert [l["id"] for l in lines[1:]] == [1]
        assert json.loads(capsys.readouterr().out)["skipped"] == 1

    def test_a_byte_order_mark_is_a_line_error(self, tmp_path, capsys):
        # one reader serves ingest and request files, so the same message
        input_path = tmp_path / "pairs.jsonl"
        input_path.write_bytes(
            b'\xef\xbb\xbf{"id": 1, "candidate": "a b", "reference": "a c"}\n'
            b'{"id": 2, "candidate": "a", "reference": "a"}\n'
        )
        output_path = tmp_path / "scores.jsonl"
        assert main(["evaluate", "--input", str(input_path), "--output", str(output_path)]) == 0
        lines = [json.loads(l) for l in output_path.read_text(encoding="utf-8").splitlines()]
        assert lines[0] == {"line": 1, "error": "invalid JSON: Unexpected UTF-8 BOM (decode "
                            "using utf-8-sig): line 1 column 1 (char 0)"}
        assert [l["id"] for l in lines[1:]] == [2]

    def test_non_string_candidate_is_a_line_error(self, tmp_path, capsys):
        pairs = [{"id": 1, "candidate": None, "reference": "None"},
                 {"id": 2, "candidate": "a", "reference": 7},
                 {"id": 3, "candidate": "a b", "reference": "a b"}]
        input_path = write_jsonl(tmp_path / "pairs.jsonl", pairs)
        output_path = tmp_path / "scores.jsonl"
        assert main(["evaluate", "--input", input_path, "--output", str(output_path)]) == 0
        lines = [json.loads(l) for l in output_path.read_text(encoding="utf-8").splitlines()]
        assert lines[:2] == [{"line": 1, "error": "key 'candidate' must be a string"},
                             {"line": 2, "error": "key 'reference' must be a string"}]
        assert [l["id"] for l in lines[2:]] == [3]
        payload = json.loads(capsys.readouterr().out)
        assert payload["skipped"] == 2
        assert payload["summary"]["count"] == 1

    def test_stemmer_flag(self, tmp_path, capsys):
        pairs = [{"id": 1, "candidate": "namas", "reference": "namo"}]
        input_path = write_jsonl(tmp_path / "pairs.jsonl", pairs)
        main(["evaluate", "--input", input_path, "--output", str(tmp_path / "s.jsonl"),
              "--stemmer", "lithuanian-light"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["rouge1_f"]["mean"] == pytest.approx(1.0)

    # sha256 of the scores file and of the report's summary (keys sorted) for
    # tests/data/evaluate_golden.jsonl: punctuation, uppercase, Lithuanian
    # inflections, repeats, non-ASCII alphanumeric edges, an empty candidate
    # and an empty reference
    GOLDEN = {
        "identity": (
            "4c07367250a36a7987ab1199defeee977255eeebcffd11c96cf4fc7295a97a0d",
            "7154e3838b74d2c74daa7208a751d007ddef8ccea793f68b22951ec2e45b2e28",
        ),
        "lithuanian-light": (
            "ef66d1629f4181c34f348dfb69cca8b06a1fdfa73d848d04fa0a98d7a7bebbcd",
            "ca2c69d87ce8d50e4f16c96b90a674d080737218bcb50b9e03c55d2d3e0926dc",
        ),
    }

    @pytest.mark.parametrize("stemmer", sorted(GOLDEN))
    def test_golden_report_bytes(self, stemmer, tmp_path, capsys):
        scores_path = tmp_path / "scores.jsonl"
        assert main(["evaluate", "--input", str(ROOT / "tests" / "data" / "evaluate_golden.jsonl"),
                     "--output", str(scores_path), "--stemmer", stemmer]) == 0
        summary = json.dumps(json.loads(capsys.readouterr().out)["summary"], sort_keys=True)
        assert (hashlib.sha256(scores_path.read_bytes()).hexdigest(),
                hashlib.sha256(summary.encode("utf-8")).hexdigest()) == self.GOLDEN[stemmer]


class TestPipelineCommand:
    def test_small_corpus_end_to_end(self, tmp_path, capsys):
        input_path = write_jsonl(tmp_path / "corpus.jsonl", synthetic_articles(30, seed=2))
        report_path = tmp_path / "report.json"
        code = main(["pipeline", "--input", input_path, "--output", str(report_path),
                     "--n-validation", "5", "--ngram-order", "2", "--method", "beam",
                     "--beam-size", "3", "--max-length", "40", "--seed", "1"])
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["decoded"] == 5
        assert payload["evaluation"]["count"] == 5
        assert "formatted" in payload["evaluation"]["rouge2_f"]
        assert "Decoding method" in payload["table"]

    def test_byte_identical_reruns(self, tmp_path):
        input_path = write_jsonl(tmp_path / "corpus.jsonl", synthetic_articles(25, seed=4))
        report_path = tmp_path / "report.json"
        argv = ["pipeline", "--input", input_path, "--output", str(report_path),
                "--n-validation", "4", "--ngram-order", "2", "--method", "sample",
                "--top-k", "3", "--max-length", "30", "--seed", "11"]
        assert main(argv) == 0
        first_bytes = report_path.read_bytes()
        assert main(argv) == 0
        assert report_path.read_bytes() == first_bytes

    def test_unsegmentable_prompts_are_decode_errors(self, tmp_path):
        input_path = write_jsonl(tmp_path / "corpus.jsonl", synthetic_articles(30, seed=2))
        report_path = tmp_path / "report.json"
        code = main(["pipeline", "--input", input_path, "--output", str(report_path),
                     "--n-validation", "5", "--ngram-order", "2",
                     "--vocab", str(summary_vocab_file(tmp_path))])
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["validation_count"] == 5
        assert payload["decode_errors"] == 5
        assert payload["decoded"] == 0
        assert payload["evaluation"] is None

    def test_a_head_covered_body_decodes_without_unk(self, tmp_path):
        # each body's 64-character head holds only summary letters and its
        # tail only body letters, which the vocabulary lacks: the prompt
        # never reads the tail, so no body fails
        articles = synthetic_articles(30, seed=2)
        for article in articles:
            article["body"] = "kk gg " * 12 + article["body"]
        input_path = write_jsonl(tmp_path / "corpus.jsonl", articles)
        report_path = tmp_path / "report.json"
        code = main(["pipeline", "--input", input_path, "--output", str(report_path),
                     "--n-validation", "5", "--ngram-order", "2", "--max-length", "20",
                     "--vocab", str(summary_vocab_file(tmp_path))])
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["filter_report"]["kept"] == 30
        assert payload["validation_count"] == payload["decoded"] == 5
        assert payload["decode_errors"] == 0

    def test_all_validation_is_a_data_error(self, tmp_path, capsys):
        input_path = write_jsonl(tmp_path / "corpus.jsonl", synthetic_articles(6))
        report_path = tmp_path / "report.json"
        assert main(["pipeline", "--input", input_path, "--output", str(report_path),
                     "--n-validation", "6"]) == 1
        err = capsys.readouterr().err
        assert err.endswith("error: data: pipeline needs a non-empty training split\n")
        assert not report_path.exists()

    def test_empty_corpus_is_a_zero_report(self, tmp_path):
        input_path = tmp_path / "empty.jsonl"
        input_path.write_text("", encoding="utf-8")
        report_path = tmp_path / "report.json"
        code = main(["pipeline", "--input", str(input_path), "--output", str(report_path)])
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["filter_report"]["kept"] == 0
        assert payload["decoded"] == 0
        assert payload["evaluation"] is None

    def test_every_report_has_the_same_keys(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_articles(30, seed=2))
        small = ["--n-validation", "5", "--ngram-order", "2", "--max-length", "20"]
        runs = {
            "empty": ["--input", str(empty)],
            "unsegmentable": ["--input", corpus, *small,
                              "--vocab", str(summary_vocab_file(tmp_path))],
            "scored": ["--input", corpus, *small],
        }
        keys = {}
        for name, flags in runs.items():
            report_path = tmp_path / f"{name}.json"
            assert main(["pipeline", *flags, "--output", str(report_path)]) == 0
            keys[name] = list(json.loads(report_path.read_text(encoding="utf-8")))
        assert "decode_errors" in keys["empty"]
        assert keys["empty"] == keys["unsegmentable"] == keys["scored"][:-1]
        assert keys["scored"][-1] == "table"

    def test_workers_do_not_change_the_report(self, tmp_path, capsys):
        input_path = write_jsonl(tmp_path / "corpus.jsonl", synthetic_articles(30, seed=2))
        report_path = tmp_path / "report.json"
        outputs = {}
        for workers in ("1", "2"):
            assert main(["pipeline", "--input", input_path, "--output", str(report_path),
                         "--n-validation", "5", "--ngram-order", "2", "--max-length", "30",
                         "--seed", "1", "--workers", workers]) == 0
            outputs[workers] = (report_path.read_bytes(), capsys.readouterr().out.encode())
        # the reports differ only in the worker count their config echoes
        echoed = [out.replace(b'"workers": 2,', b'"workers": 1,') for out in outputs["2"]]
        assert echoed == list(outputs["1"])
        assert all(b'"workers": 2,' in out for out in outputs["2"])


class TestRunErrors:
    def test_missing_input_file(self, tmp_path):
        config = parse_args(["filter", "--input", str(tmp_path / "nope.jsonl"),
                             "--output", str(tmp_path / "o.jsonl")])
        assert run(config) == 1

    def test_missing_output_directory_is_an_io_error(self, tmp_path, capsys):
        pairs = write_jsonl(tmp_path / "pairs.jsonl",
                            [{"id": 1, "candidate": "a b", "reference": "a b"}])
        output_path = tmp_path / "nodir" / "out.jsonl"
        assert main(["evaluate", "--input", pairs, "--output", str(output_path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: io: cannot write {output_path}: No such file or directory\n"
        assert not output_path.parent.exists()

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        output_path = tmp_path / "out.jsonl"
        output_path.write_text("old\n", encoding="utf-8")

        def write(fh):
            fh.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _atomic_write(str(output_path), write)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]
        assert output_path.read_text(encoding="utf-8") == "old\n"


def _set_count(token):
    def tamper(payload):
        payload["counts"][next(iter(payload["counts"]))][token] = 3
        return payload
    return tamper


def _set(key, value, part=None):
    """A tamper that sets ``key`` of the payload, or of its ``part`` object."""
    def tamper(payload):
        (payload if part is None else payload[part])[key] = value
        return payload
    return tamper


class TestTamperedModel:
    @pytest.mark.parametrize("tamper, message", [
        pytest.param(_set_count("-1"), r"context .*: token ids must lie in", id="-1"),
        pytest.param(_set_count("99"), r"context .*: token ids must lie in", id="99"),
        pytest.param(_set("order", "3"), "key 'order' must be an integer", id="order-str"),
        pytest.param(_set("order", True), "key 'order' must be an integer", id="order-bool"),
        pytest.param(_set("alpha", "x"), "key 'alpha' must be a finite number", id="alpha-str"),
        pytest.param(_set("counts", []), "key 'counts' must map contexts", id="counts-list"),
        pytest.param(_set("0 0", [], "counts"), "key 'counts' must map contexts",
                     id="bucket-list"),
        pytest.param(lambda p: [p], "model payload must be a JSON object", id="payload-list"),
        pytest.param(_set("vocab", []), "vocabulary payload must be a JSON object",
                     id="vocab-list"),
        pytest.param(_set("tokens", "abc", "vocab"), "key 'tokens' must be a list of strings",
                     id="vocab-tokens-str"),
        pytest.param(_set("log_probs", [None], "vocab"), "key 'log_probs' must be a list",
                     id="vocab-log-probs-null"),
        pytest.param(_set("specials", {"eos": ["x"]}, "vocab"),
                     "key 'specials' must map roles", id="vocab-specials-list"),
    ])
    def test_decode_reports_a_data_error(self, tmp_path, capsys, tamper, message):
        payload = json.loads(train_model_file(tmp_path).read_text(encoding="utf-8"))
        model_path = tmp_path / "tampered.json"
        model_path.write_text(json.dumps(tamper(payload)), encoding="utf-8")
        requests = write_jsonl(tmp_path / "req.jsonl", [{"id": 1, "prompt": "kalba"}])
        output_path = tmp_path / "res.jsonl"
        code = main(["decode", "--input", requests, "--model", str(model_path),
                     "--output", str(output_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert re.search("error: data: " + message, err), err
        assert "Traceback" not in err
        assert not output_path.exists()


class TestStartup:
    def test_importing_loads_no_pool_and_no_hashlib(self):
        # a run that decodes in one process, or hashes no vocabulary, never
        # uses these; compared against what numpy itself already loaded
        program = (f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
                   "import numpy\nbefore = set(sys.modules)\n"
                   "import santrauka, santrauka.cli, santrauka.metrics\n"
                   "print(sorted(set(sys.modules) - before))")
        done = subprocess.run([sys.executable, "-I", "-c", program], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        loaded = set(ast.literal_eval(done.stdout))
        assert "santrauka.cli" in loaded
        assert not loaded & {"concurrent.futures.process", "multiprocessing", "hashlib",
                             "_hashlib"}


def _crash_worker(task):
    """Stands in for the decode task and kills the worker process."""
    os._exit(1)


class TestWorkerCrash:
    def test_broken_pool_is_a_worker_error(self, tmp_path, capsys, monkeypatch):
        model_path = train_model_file(tmp_path)
        # prompts of distinct last ids: prompts that share them share one
        # search, and a batch of one search never starts a pool
        requests = [{"id": i, "prompt": "kalba diena"[: 3 + 2 * i]} for i in range(4)]
        input_path = write_jsonl(tmp_path / "req.jsonl", requests)
        output_path = tmp_path / "res.jsonl"
        monkeypatch.setattr(sys.modules["santrauka.decode"], "_decode_task", _crash_worker)
        code = main(["decode", "--input", input_path, "--model", str(model_path),
                     "--output", str(output_path), "--workers", "2"])
        assert code == 1
        assert "error: worker:" in capsys.readouterr().err
        assert not output_path.exists()

    @pytest.mark.parametrize("error", [RuntimeError("boom"), NotImplementedError("boom")])
    def test_other_runtime_errors_are_not_worker_errors(self, monkeypatch, error):
        import concurrent.futures.process  # noqa: F401 - a pool may exist, so run() looks

        def handler(config):
            raise error

        monkeypatch.setitem(cli._COMMANDS, "stats", (handler, "help"))
        with pytest.raises(type(error), match="boom"):
            run(RunConfig("stats", input="i"))
