"""Command-line entry point wiring corpus -> lm -> decode -> metrics.

Commands: filter, stats, split, train-lm, decode, evaluate, pipeline.
Option values resolve as defaults < --config JSON file < explicit flags.
Data outputs are written atomically (temp file, then rename) and every
report embeds the fully resolved configuration; progress goes to stderr
only, so same-seed reruns produce byte-identical outputs.

All input and output data files are UTF-8 line-delimited JSON. The
optional value 0 disables --top-k, --top-p, and --no-repeat-ngram-size.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields
from typing import Callable

from santrauka.corpus import (
    FilterConfig,
    corpus_stats,
    filter_article,
    format_stats_table,
    ingest,
    split_validation,
    to_json_line,
)
from santrauka.decode import DecodeConfig, batch_decode
from santrauka.lm import NGramModel, train_ngram
from santrauka.metrics import aggregate, evaluate_pair, render_table
from santrauka.tokenizer import Vocabulary, char_vocabulary, viterbi_segment

__all__ = ["RunConfig", "main", "parse_args", "render_args", "run"]

COMMANDS = ("filter", "stats", "split", "train-lm", "decode", "evaluate", "pipeline")

#: Tokens of the article body used to prompt the model in the pipeline.
PIPELINE_PROMPT_TOKENS = 64


@dataclass
class RunConfig:
    """Fully resolved settings for one CLI invocation."""

    command: str
    input: str | None = None
    output: str | None = None
    model: str | None = None
    vocab: str | None = None
    seed: int = 0
    workers: int = 1
    method: str = "beam"
    beam_size: int = 10
    top_k: int | None = None
    top_p: float | None = None
    temperature: float = 1.0
    no_repeat_ngram_size: int | None = 2
    max_length: int = 128
    sample_within_beam: bool = False
    ngram_order: int = 3
    alpha: float = 1.0
    n_validation: int = 4096
    stemmer: str = "identity"
    min_summary_chars: int = 10
    min_body_chars: int = 100
    min_ratio: float = 2.0
    max_overlap_ratio: float = 0.2

    def decode_config(self) -> DecodeConfig:
        return DecodeConfig(
            method=self.method,
            beam_size=self.beam_size,
            top_k=self.top_k,
            top_p=self.top_p,
            temperature=self.temperature,
            no_repeat_ngram_size=self.no_repeat_ngram_size,
            max_length=self.max_length,
            seed=self.seed,
            sample_within_beam=self.sample_within_beam,
        )

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            min_summary_chars=self.min_summary_chars,
            min_body_chars=self.min_body_chars,
            min_body_to_summary_ratio=self.min_ratio,
            max_overlap_ratio=self.max_overlap_ratio,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}

#: Flags whose value 0 means "disabled" (stored as None).
_ZERO_DISABLES = ("top_k", "top_p", "no_repeat_ngram_size")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="santrauka",
        description="Corpus filtering, n-gram language modeling, sequence "
        "decoding, and summary evaluation in one reproducible pipeline.",
        epilog="Option precedence: built-in defaults, then --config file "
        "values, then explicit flags.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    help_by_command = {
        "filter": "apply keep/reject rules to an article corpus",
        "stats": "report per-source statistics of the filtered corpus",
        "split": "deterministically set aside a validation set",
        "train-lm": "train an n-gram language model on article summaries",
        "decode": "generate text for a file of prompts with a trained model",
        "evaluate": "score candidate/reference summary pairs",
        "pipeline": "run filter, split, train-lm, decode, and evaluate end to end",
    }
    for command in COMMANDS:
        p = sub.add_parser(command, help=help_by_command[command])
        p.add_argument("--input", help="input data file (line-delimited JSON)")
        p.add_argument("--output", help="output path; split appends .train/.valid")
        p.add_argument("--config", help="JSON file with RunConfig overrides")
        p.add_argument("--seed", type=int, help="master seed for all randomness")
        p.add_argument("--workers", type=int, help="parallel worker count")
        p.add_argument("--model", help="trained model file (decode)")
        p.add_argument("--vocab", help="vocabulary file; default derives one from the data")
        p.add_argument("--method", choices=("greedy", "beam", "sample"),
                       help="decoding algorithm (default: beam)")
        p.add_argument("--beam-size", type=int, dest="beam_size",
                       help="hypotheses kept per step (default: 10)")
        p.add_argument("--top-k", type=int, dest="top_k",
                       help="sample from the k best tokens; 0 disables (default)")
        p.add_argument("--top-p", type=float, dest="top_p",
                       help="sample from the p-mass head; 0 disables (default)")
        p.add_argument("--temperature", type=float, help="logit divisor (default: 1.0)")
        p.add_argument(
            "--no-repeat-ngram-size",
            type=int,
            dest="no_repeat_ngram_size",
            help="ban repeated n-grams of this size; 0 disables (default: 2)",
        )
        p.add_argument("--max-length", type=int, dest="max_length",
                       help="token budget per decode (default: 128)")
        p.add_argument(
            "--sample-within-beam",
            action="store_const",
            const=True,
            dest="sample_within_beam",
            help="sample beam successors instead of taking them greedily",
        )
        p.add_argument("--ngram-order", type=int, dest="ngram_order")
        p.add_argument("--alpha", type=float, help="additive smoothing strength")
        p.add_argument("--n-validation", type=int, dest="n_validation")
        p.add_argument("--stemmer", help="identity or lithuanian-light")
        p.add_argument("--min-summary-chars", type=int, dest="min_summary_chars")
        p.add_argument("--min-body-chars", type=int, dest="min_body_chars")
        p.add_argument("--min-ratio", type=float, dest="min_ratio")
        p.add_argument("--max-overlap-ratio", type=float, dest="max_overlap_ratio")
    return parser


def parse_args(argv: list[str]) -> RunConfig:
    """Parse argv into a fully resolved RunConfig.

    Unknown flags, type mismatches, unknown config-file keys, and missing
    required paths all exit with a usage error (status 2).
    """
    parser = _build_parser()
    namespace = parser.parse_args(argv)
    resolved = {"command": namespace.command}

    config_path = getattr(namespace, "config", None)
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            parser.error(f"cannot read --config file: {err}")
        if not isinstance(overrides, dict):
            parser.error("--config file must hold a JSON object")
        unknown = set(overrides) - (set(_FIELD_TYPES) - {"command"})
        if unknown:
            parser.error(f"unknown keys in --config file: {sorted(unknown)}")
        resolved.update(overrides)

    for name in _FIELD_TYPES:
        value = getattr(namespace, name, None)
        if value is not None:
            resolved[name] = value
    for name in _ZERO_DISABLES:
        if resolved.get(name) == 0:
            resolved[name] = None

    try:
        config = RunConfig(**resolved)
        config.decode_config()
        config.filter_config()
    except (TypeError, ValueError) as err:
        parser.error(str(err))

    needs_input = True
    needs_output = config.command not in ("stats",)
    if needs_input and not config.input:
        parser.error(f"{config.command} requires --input")
    if needs_output and not config.output:
        parser.error(f"{config.command} requires --output")
    if config.command == "decode" and not config.model:
        parser.error("decode requires --model")
    if config.workers < 1:
        parser.error("--workers must be at least 1")
    if config.n_validation < 0:
        parser.error("--n-validation must be nonnegative")
    return config


def render_args(config: RunConfig) -> list[str]:
    """Inverse of parse_args: argv that reproduces ``config`` exactly."""
    argv = [config.command]
    for path_flag in ("input", "output", "model", "vocab"):
        value = getattr(config, path_flag)
        if value is not None:
            argv += [f"--{path_flag}", value]
    argv += ["--seed", str(config.seed), "--workers", str(config.workers)]
    argv += ["--method", config.method, "--beam-size", str(config.beam_size)]
    argv += ["--top-k", str(config.top_k if config.top_k is not None else 0)]
    argv += ["--top-p", str(config.top_p if config.top_p is not None else 0)]
    argv += ["--temperature", str(config.temperature)]
    argv += [
        "--no-repeat-ngram-size",
        str(config.no_repeat_ngram_size if config.no_repeat_ngram_size is not None else 0),
    ]
    argv += ["--max-length", str(config.max_length)]
    if config.sample_within_beam:
        argv += ["--sample-within-beam"]
    argv += ["--ngram-order", str(config.ngram_order), "--alpha", str(config.alpha)]
    argv += ["--n-validation", str(config.n_validation), "--stemmer", config.stemmer]
    argv += [
        "--min-summary-chars", str(config.min_summary_chars),
        "--min-body-chars", str(config.min_body_chars),
        "--min-ratio", str(config.min_ratio),
        "--max-overlap-ratio", str(config.max_overlap_ratio),
    ]
    return argv


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _atomic_write(path: str, write: Callable) -> None:
    """Write through a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".santrauka-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _dump(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False, indent=2)


def _read_jsonl(path: str, required: tuple[str, ...]):
    """Yield (line_no, record, error) triples from a line-delimited file."""
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                yield line_no, None, f"invalid JSON: {err}"
                continue
            if not isinstance(record, dict):
                yield line_no, None, "line is not a JSON object"
                continue
            missing = [key for key in required if key not in record]
            if missing:
                yield line_no, None, f"missing keys: {missing}"
                continue
            yield line_no, record, None


def _filter_pass(config: RunConfig):
    ingest_errors: list = []
    articles = list(ingest(config.input, ingest_errors))
    filter_config = config.filter_config()
    if config.workers > 1 and len(articles) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            chunk = max(1, len(articles) // (config.workers * 4))
            decisions = list(
                pool.map(partial(filter_article, config=filter_config), articles, chunksize=chunk)
            )
    else:
        decisions = [filter_article(article, filter_config) for article in articles]
    report = corpus_stats(zip(articles, decisions))
    return articles, decisions, report, ingest_errors


def _cmd_filter(config: RunConfig) -> int:
    started = time.monotonic()
    articles, decisions, report, ingest_errors = _filter_pass(config)
    kept = [a for a, d in zip(articles, decisions) if d is None]

    def write(fh):
        for article in kept:
            fh.write(to_json_line(article) + "\n")

    _atomic_write(config.output, write)
    payload = {
        "config": asdict(config),
        "ingest_errors": len(ingest_errors),
        "report": report.as_dict(),
    }
    print(_dump(payload))
    _progress(
        f"filter: kept {report.kept}/{report.total} articles "
        f"({len(ingest_errors)} bad lines) in {time.monotonic() - started:.1f}s"
    )
    return 0


def _cmd_stats(config: RunConfig) -> int:
    articles, decisions, report, ingest_errors = _filter_pass(config)
    del articles, decisions
    print(format_stats_table(report))
    if config.output:
        payload = {
            "config": asdict(config),
            "ingest_errors": len(ingest_errors),
            "report": report.as_dict(),
        }
        _atomic_write(config.output, lambda fh: fh.write(_dump(payload) + "\n"))
    return 0


def _split_paths(output: str) -> tuple[str, str]:
    base = output[: -len(".jsonl")] if output.endswith(".jsonl") else output
    return f"{base}.train.jsonl", f"{base}.valid.jsonl"


def _cmd_split(config: RunConfig) -> int:
    ingest_errors: list = []
    articles = list(ingest(config.input, ingest_errors))
    train, validation = split_validation(articles, config.n_validation, config.seed)
    train_path, valid_path = _split_paths(config.output)

    def writer(items):
        def write(fh):
            for article in items:
                fh.write(to_json_line(article) + "\n")

        return write

    _atomic_write(train_path, writer(train))
    _atomic_write(valid_path, writer(validation))
    payload = {
        "config": asdict(config),
        "ingest_errors": len(ingest_errors),
        "train": {"path": train_path, "count": len(train)},
        "validation": {"path": valid_path, "count": len(validation)},
    }
    print(_dump(payload))
    return 0


def _load_or_derive_vocab(config: RunConfig, texts: list[str]) -> Vocabulary:
    if config.vocab:
        return Vocabulary.load(config.vocab)
    return char_vocabulary(texts)


def _train_model(config: RunConfig, texts: list[str]) -> NGramModel:
    vocab = _load_or_derive_vocab(config, texts)
    streams = [viterbi_segment(text, vocab) for text in texts]
    return train_ngram(streams, config.ngram_order, config.alpha, vocab)


def _cmd_train_lm(config: RunConfig) -> int:
    started = time.monotonic()
    ingest_errors: list = []
    articles = list(ingest(config.input, ingest_errors))
    texts = [article.summary for article in articles]
    model = _train_model(config, texts)
    blob = json.dumps(model.to_dict(), ensure_ascii=False)
    _atomic_write(config.output, lambda fh: fh.write(blob))
    payload = {
        "config": asdict(config),
        "ingest_errors": len(ingest_errors),
        "sequences": len(texts),
        "vocab_size": len(model.vocab),
        "contexts": len(model.counts),
    }
    print(_dump(payload))
    _progress(f"train-lm: {len(texts)} summaries in {time.monotonic() - started:.1f}s")
    return 0


def _cmd_decode(config: RunConfig) -> int:
    started = time.monotonic()
    model = NGramModel.load(config.model)
    decode_config = config.decode_config()
    requests: list[tuple[object, str]] = []
    bad_lines: list[dict] = []
    for line_no, record, error in _read_jsonl(config.input, ("id", "prompt")):
        if error is not None:
            bad_lines.append({"line": line_no, "error": error})
            continue
        requests.append((record["id"], str(record["prompt"])))
    prompts = [viterbi_segment(prompt, model.vocab) for _, prompt in requests]
    decode_errors: list[tuple[int, str]] = []
    results = batch_decode(
        model, prompts, decode_config, workers=config.workers, errors=decode_errors
    )
    error_by_index = dict(decode_errors)
    config_echo = asdict(config)

    def write(fh):
        for entry in bad_lines:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
        for i, ((request_id, _), result) in enumerate(zip(requests, results)):
            if result is None:
                record = {"id": request_id, "error": error_by_index[i]}
            else:
                record = {
                    "id": request_id,
                    "text": result.text,
                    "score": result.score,
                    "steps": result.steps,
                    "config_echo": config_echo,
                }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

    _atomic_write(config.output, write)
    _progress(
        f"decode: {len(requests)} prompts, {len(decode_errors)} failures, "
        f"{len(bad_lines)} bad lines in {time.monotonic() - started:.1f}s"
    )
    return 0


def _cmd_evaluate(config: RunConfig) -> int:
    records = []
    outputs = []
    bad_lines: list[dict] = []
    for line_no, record, error in _read_jsonl(
        config.input, ("id", "candidate", "reference")
    ):
        if error is not None:
            bad_lines.append({"line": line_no, "error": error})
            continue
        try:
            scored = evaluate_pair(
                str(record["candidate"]), str(record["reference"]), stemmer=config.stemmer
            )
        except ValueError as err:
            bad_lines.append({"line": line_no, "error": str(err)})
            continue
        records.append(scored)
        outputs.append({"id": record["id"], **scored.as_dict()})

    def write(fh):
        for entry in bad_lines:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
        for entry in outputs:
            fh.write(json.dumps(entry, ensure_ascii=False) + "\n")

    _atomic_write(config.output, write)
    payload: dict = {"config": asdict(config), "skipped": len(bad_lines)}
    if records:
        summary = aggregate(records)
        payload["summary"] = summary.as_dict()
        _progress(render_table({config.method: summary}))
    else:
        payload["summary"] = None
    print(_dump(payload))
    return 0


def _cmd_pipeline(config: RunConfig) -> int:
    started = time.monotonic()
    articles, decisions, report, ingest_errors = _filter_pass(config)
    kept = [a for a, d in zip(articles, decisions) if d is None]
    _progress(f"pipeline: kept {len(kept)}/{len(articles)} articles")
    payload: dict = {
        "config": asdict(config),
        "ingest_errors": len(ingest_errors),
        "filter_report": report.as_dict(),
    }
    if not kept:
        payload.update(
            {"train_count": 0, "validation_count": 0, "decoded": 0, "evaluation": None}
        )
        _atomic_write(config.output, lambda fh: fh.write(_dump(payload) + "\n"))
        print(_dump(payload))
        return 0

    train, validation = split_validation(kept, config.n_validation, config.seed)
    if not train:
        raise ValueError("pipeline needs a non-empty training split")
    model = _train_model(config, [article.summary for article in train])
    _progress(
        f"pipeline: trained order-{config.ngram_order} model on {len(train)} summaries"
    )

    prompts = [
        viterbi_segment(article.body, model.vocab).ids[:PIPELINE_PROMPT_TOKENS]
        for article in validation
    ]
    decode_errors: list[tuple[int, str]] = []
    results = batch_decode(
        model, prompts, config.decode_config(), workers=config.workers, errors=decode_errors
    )
    scored = [
        evaluate_pair(result.text, article.summary, stemmer=config.stemmer)
        for result, article in zip(results, validation)
        if result is not None
    ]
    payload.update(
        {
            "train_count": len(train),
            "validation_count": len(validation),
            "decoded": len(scored),
            "decode_errors": len(decode_errors),
        }
    )
    if scored:
        summary = aggregate(scored)
        payload["evaluation"] = summary.as_dict()
        payload["table"] = render_table({config.method: summary})
        _progress(payload["table"])
    else:
        payload["evaluation"] = None
    _atomic_write(config.output, lambda fh: fh.write(_dump(payload) + "\n"))
    print(_dump(payload))
    _progress(f"pipeline: finished in {time.monotonic() - started:.1f}s")
    return 0


_COMMANDS = {
    "filter": _cmd_filter,
    "stats": _cmd_stats,
    "split": _cmd_split,
    "train-lm": _cmd_train_lm,
    "decode": _cmd_decode,
    "evaluate": _cmd_evaluate,
    "pipeline": _cmd_pipeline,
}


def run(config: RunConfig) -> int:
    """Execute the selected command; 0 on success, 1 on categorized failure."""
    try:
        return _COMMANDS[config.command](config)
    except FileNotFoundError as err:
        print(f"error: input: {err}", file=sys.stderr)
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: data: {err}", file=sys.stderr)
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
    except BrokenProcessPool as err:
        print(f"error: worker: {err}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
