import json
import os
import sys

import numpy as np
import pytest

from santrauka.cli import RunConfig, main, parse_args, render_args, run
from santrauka.lm import NGramModel


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


class TestConfigFilePrecedence:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps({"beam_size": 4, "temperature": 0.5}), encoding="utf-8"
        )
        config = parse_args(
            [
                "filter", "--input", "i", "--output", "o",
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

    def test_config_can_set_flagless_fields(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"sample_within_beam": True}), encoding="utf-8")
        config = parse_args(
            ["decode", "--input", "i", "--output", "o", "--model", "m",
             "--config", str(config_path)]
        )
        assert config.sample_within_beam is True


class TestRenderRoundTrip:
    CONFIGS = [
        RunConfig(command="filter", input="a.jsonl", output="b.jsonl"),
        RunConfig(command="decode", input="i", output="o", model="m", beam_size=7,
                  top_k=50, method="beam", sample_within_beam=True, seed=3),
        RunConfig(command="pipeline", input="i", output="o", vocab="v",
                  top_p=0.9, temperature=0.25, no_repeat_ngram_size=None,
                  n_validation=16, stemmer="lithuanian-light", workers=2),
        RunConfig(command="evaluate", input="i", output="o", method="sample",
                  max_length=12, alpha=0.0, min_ratio=3.5),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.command)
    def test_round_trip(self, config):
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


def train_model_file(tmp_path):
    input_path = write_jsonl(tmp_path / "train.jsonl", synthetic_articles(20))
    model_path = tmp_path / "model.json"
    code = main(["train-lm", "--input", input_path, "--output", str(model_path),
                 "--ngram-order", "3", "--alpha", "1.0"])
    assert code == 0
    return model_path


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


class TestTamperedModel:
    @pytest.mark.parametrize("token", ["-1", "99"])
    def test_decode_reports_a_data_error(self, tmp_path, capsys, token):
        payload = json.loads(train_model_file(tmp_path).read_text(encoding="utf-8"))
        context = next(iter(payload["counts"]))
        payload["counts"][context][token] = 3
        model_path = tmp_path / "tampered.json"
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        requests = write_jsonl(tmp_path / "req.jsonl", [{"id": 1, "prompt": "kalba"}])
        output_path = tmp_path / "res.jsonl"
        code = main(["decode", "--input", requests, "--model", str(model_path),
                     "--output", str(output_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: data: context" in err
        assert "token ids must lie in" in err
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
