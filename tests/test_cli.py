import argparse
import ast
import json
import os
import re
import shlex
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from santrauka.cli import (
    COMMANDS,
    RunConfig,
    _build_parser,
    main,
    parse_args,
    render_args,
    run,
)
from santrauka.decode import METHODS
from santrauka.lm import NGramModel
from santrauka.tokenizer import Vocabulary

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
_FILTER_FLAGS = {"input", "output", "workers", "min_summary_chars", "min_body_chars",
                 "min_ratio", "max_overlap_ratio"}
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
        assert [len(SCOPE[c]) for c in COMMANDS] == [7, 7, 4, 5, 13, 4, 21]
        assert sum(map(len, SCOPE.values())) == 61

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
        parser = _build_parser()
        (subparsers,) = [a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)]
        for command, subparser in subparsers.choices.items():
            for action in subparser._actions:
                assert action.help, (command, action.option_strings)


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

    def test_missing_required_path_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["filter", "--input", "i"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            parse_args(["decode", "--input", "i", "--output", "o"])  # no --model

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


def _text(min_size=0):
    return st.text(min_size=min_size, max_size=12)


_run_configs = st.builds(
    RunConfig,
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
    ngram_order=st.integers(),
    alpha=st.floats(allow_nan=False, allow_infinity=False),
    n_validation=st.integers(min_value=0),
    stemmer=_text(),
    min_summary_chars=st.integers(min_value=0),
    min_body_chars=st.integers(min_value=0),
    min_ratio=st.floats(min_value=0, allow_infinity=False),
    max_overlap_ratio=st.floats(min_value=0, max_value=1),
).filter(
    lambda c: (c.output or c.command == "stats") and (c.model or c.command != "decode")
).map(  # the fields a command does not read keep their defaults
    lambda c: RunConfig(c.command, **{name: getattr(c, name) for name in SCOPE[c.command]})
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
                              stemmer="--x", alpha=-1.5))
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

    def test_input_file_not_mutated(self, tmp_path):
        input_path = tmp_path / "in.jsonl"
        write_jsonl(input_path, synthetic_articles(3))
        before = input_path.read_bytes()
        main(["filter", "--input", str(input_path), "--output", str(tmp_path / "o.jsonl")])
        assert input_path.read_bytes() == before

    def test_workers_do_not_change_results(self, tmp_path):
        input_path = write_jsonl(tmp_path / "in.jsonl", synthetic_articles(12))
        one = tmp_path / "one.jsonl"
        two = tmp_path / "two.jsonl"
        main(["filter", "--input", input_path, "--output", str(one)])
        main(["filter", "--input", input_path, "--output", str(two), "--workers", "3"])
        assert one.read_bytes() == two.read_bytes()


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


class TestRunErrors:
    def test_missing_input_file(self, tmp_path):
        config = parse_args(["filter", "--input", str(tmp_path / "nope.jsonl"),
                             "--output", str(tmp_path / "o.jsonl")])
        assert run(config) == 1


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


def _crash_worker(task):
    """Stands in for the decode task and kills the worker process."""
    os._exit(1)


class TestWorkerCrash:
    def test_broken_pool_is_a_worker_error(self, tmp_path, capsys, monkeypatch):
        model_path = train_model_file(tmp_path)
        requests = [{"id": i, "prompt": "kalba diena"} for i in range(4)]
        input_path = write_jsonl(tmp_path / "req.jsonl", requests)
        output_path = tmp_path / "res.jsonl"
        monkeypatch.setattr(sys.modules["santrauka.decode"], "_decode_task", _crash_worker)
        code = main(["decode", "--input", input_path, "--model", str(model_path),
                     "--output", str(output_path), "--workers", "2"])
        assert code == 1
        assert "error: worker:" in capsys.readouterr().err
        assert not output_path.exists()
