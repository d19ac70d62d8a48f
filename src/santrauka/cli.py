"""Command-line entry point wiring corpus -> lm -> decode -> metrics.

Commands: filter, stats, split, train-lm, decode, evaluate, pipeline.
Option values resolve as defaults < --config JSON file < explicit flags.
Data outputs are written atomically (temp file, then rename) and every
report embeds the fully resolved configuration; progress goes to stderr
only, so same-seed reruns produce byte-identical outputs.

All input and output data files are UTF-8 line-delimited JSON. The
optional value 0 disables --top-k, --top-p, and --no-repeat-ngram-size.

A new option is a RunConfig field and nowhere else: its flag, --config
key, type check, render_args form, and command scope follow from it.
A RunConfig checks its values when built, so flags, --config values and
a RunConfig built in code pass the same checks.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import sys
import tempfile
import time
from dataclasses import Field, asdict, dataclass, field, fields
from typing import Callable, Sequence

from santrauka._checks import count
from santrauka.corpus import (
    FilterConfig,
    corpus_stats,
    filter_article,
    format_stats_table,
    ingest,
    read_jsonl,
    split_validation,
    to_json_line,
)
from santrauka.decode import METHODS, DecodeConfig, batch_decode
from santrauka.lm import NGramModel, _check_order_alpha, train_ngram
from santrauka.metrics import aggregate, evaluate_pair, render_table, stem_normalize
from santrauka.tokenizer import Vocabulary, _CharCorpus, viterbi_segment

__all__ = ["RunConfig", "main", "parse_args", "render_args", "run"]

#: Tokens of the article body used to prompt the model in the pipeline.
PIPELINE_PROMPT_TOKENS = 64

#: The commands that read the decoding, filtering, training and scoring fields.
_DECODING, _FILTERING = ("decode", "pipeline"), ("filter", "stats", "pipeline")
_TRAINING, _SCORING = ("train-lm", "pipeline"), ("evaluate", "pipeline")

#: Library parameters whose RunConfig field has another name; a library
#: range error begins with the parameter's name.
_RENAMED = {"order": "ngram_order", "min_body_to_summary_ratio": "min_ratio"}


def _option(default, help: str, **meta):
    """A RunConfig field whose metadata describes its command-line flag."""
    return field(default=default, metadata={"help": help, **meta})


@dataclass
class RunConfig:
    """Fully resolved settings for one CLI invocation.

    Each field after ``command`` is the flag ``--field-name``. Its metadata
    holds the ``help``, the ``type`` where the default is None, any ``choices``,
    ``zero_disables`` where a 0 is stored as None (off), and the ``commands``
    that read it where not every command does.
    """

    command: str
    input: str | None = _option(None, "input data file (line-delimited JSON)", type=str)
    output: str | None = _option(None, "output path; split appends .train/.valid", type=str)
    model: str | None = _option(None, "trained model file", type=str, commands=("decode",))
    vocab: str | None = _option(None, "vocabulary file; default derives one from the data",
                                type=str, commands=_TRAINING)
    seed: int = _option(0, "master seed for all randomness", commands=("split", *_DECODING))
    workers: int = _option(1, "decode worker processes (default: 1); prompts that end in "
                           "the same model-visible ids share one search, and on 2 cores "
                           "a second worker paid off from about 1,000 searches",
                           commands=_DECODING)
    method: str = _option("beam", "decoding algorithm (default: beam)", choices=METHODS,
                          commands=(*_DECODING, "evaluate"))
    beam_size: int = _option(10, "hypotheses kept per step (default: 10)", commands=_DECODING)
    top_k: int | None = _option(None, "sample from the k best tokens; 0 disables (default)",
                                type=int, zero_disables=True, commands=_DECODING)
    top_p: float | None = _option(None, "sample from the p-mass head; 0 disables (default)",
                                  type=float, zero_disables=True, commands=_DECODING)
    temperature: float = _option(1.0, "logit divisor (default: 1.0)", commands=_DECODING)
    no_repeat_ngram_size: int | None = _option(
        2, "ban repeated n-grams of this size; 0 disables (default: 2)", zero_disables=True,
        commands=_DECODING)
    max_length: int = _option(128, "token budget per decode (default: 128)", commands=_DECODING)
    sample_within_beam: bool = _option(
        False, "sample beam successors instead of taking them greedily", commands=_DECODING)
    ngram_order: int = _option(3, "n-gram model order (default: 3)", commands=_TRAINING)
    alpha: float = _option(1.0, "additive smoothing strength", commands=_TRAINING)
    n_validation: int = _option(4096, "articles set aside for validation (default: 4096)",
                                commands=("split", "pipeline"))
    stemmer: str = _option("identity", "identity or lithuanian-light", commands=_SCORING)
    min_summary_chars: int = _option(10, "reject summaries of at most this many chars "
                                     "(default: 10)", commands=_FILTERING)
    min_body_chars: int = _option(100, "reject bodies of at most this many chars "
                                  "(default: 100)", commands=_FILTERING)
    min_ratio: float = _option(2.0, "reject bodies shorter than this many summary lengths "
                               "(default: 2.0)", commands=_FILTERING)
    max_overlap_ratio: float = _option(0.2, "reject summaries with a body substring of at "
                                       "least this share (default: 0.2)", commands=_FILTERING)

    def __post_init__(self):
        """Every check a flag gets, so any RunConfig is valid; numbers are
        stored as plain ints and floats, so a report can echo them."""
        vars(self).update(asdict(self.decode_config()))
        self.filter_config()
        self.ngram_order = _check_order_alpha(self.ngram_order, self.alpha)
        stem_normalize((), self.stemmer)
        for path, required in (("input", True), ("output", self.command != "stats"),
                               ("model", self.command == "decode")):
            if required and not getattr(self, path):
                raise ValueError(f"{self.command} requires --{path}")
        self.workers = count("workers", self.workers, 1)
        self.n_validation = count("n_validation", self.n_validation, 0)
        for name, value in asdict(self).items():
            # a numpy number passes the checks but not json.dumps
            if isinstance(value, numbers.Real) and type(value) not in (int, float, bool):
                plain = int if isinstance(value, numbers.Integral) else float
                setattr(self, name, plain(value))

    def decode_config(self) -> DecodeConfig:
        return DecodeConfig(**{f.name: getattr(self, f.name) for f in fields(DecodeConfig)})

    def filter_config(self) -> FilterConfig:
        return FilterConfig(**{f.name: getattr(self, _RENAMED.get(f.name, f.name))
                               for f in fields(FilterConfig)})


#: The RunConfig fields that are flags: all but ``command``.
_OPTIONS = {f.name: f for f in fields(RunConfig) if f.name != "command"}


def _scope(command: str) -> dict[str, Field]:
    """The options ``command`` reads, so its flags and --config keys."""
    return {name: option for name, option in _OPTIONS.items()
            if command in option.metadata.get("commands", (command,))}


def _flag(option: Field) -> str:
    return "--" + option.name.replace("_", "-")


def _value_type(option: Field) -> type:
    return option.metadata.get("type", type(option.default))


def _accepts(option: Field, value: object) -> bool:
    """Whether a --config file value has the option's type: ints where
    floats go, and null where the field's value may be None."""
    if value is None:
        return option.default is None or option.metadata.get("zero_disables", False)
    kind = _value_type(option)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, kind) or (kind is float and isinstance(value, int))


def _build_parser(
    argv: Sequence[str] = (),
) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser, by command name.

    When the first non-option token of ``argv`` names a command, only that
    command's subparser gets its flags: no other one parses, prints help or
    reports an error in that run. Otherwise every subparser gets them.
    """
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    flagged = (named,) if named in _COMMANDS else _COMMANDS
    parser = argparse.ArgumentParser(
        prog="santrauka",
        description="Corpus filtering, n-gram language modeling, sequence "
        "decoding, and summary evaluation in one reproducible pipeline.",
        epilog="Option precedence: built-in defaults, then --config file "
        "values, then explicit flags.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    subparsers = {}
    for command, (_, help) in _COMMANDS.items():
        p = subparsers[command] = sub.add_parser(command, help=help)
        p.add_argument("--config", help="JSON file with RunConfig overrides")
        for option in _scope(command).values() if command in flagged else ():
            if _value_type(option) is bool:
                p.add_argument(_flag(option), action="store_const", const=True,
                               help=option.metadata["help"])
            else:
                p.add_argument(_flag(option), type=_value_type(option),
                               choices=option.metadata.get("choices"),
                               help=option.metadata["help"])
    return parser, subparsers


def parse_args(argv: list[str]) -> RunConfig:
    """Parse argv into a fully resolved RunConfig.

    Flags and config-file keys the command does not read, type mismatches,
    mistyped config values, and every value RunConfig refuses (a range error
    named by its flag) exit with a usage error (status 2). A ``--`` before
    the command name ends the top-level options, so it changes nothing.
    """
    named = next((i for i, arg in enumerate(argv) if not arg.startswith("-")), len(argv))
    argv = [arg for arg in argv[:named] if arg != "--"] + list(argv[named:])
    parser, subparsers = _build_parser(argv)
    namespace, extra = parser.parse_known_args(argv)
    command, scope = namespace.command, _scope(namespace.command)
    # scope errors print the command's own usage line, with its flags
    own_parser = subparsers[command]
    if extra:
        own_parser.error(f"{command} does not take {' '.join(extra)}")
    resolved = {"command": command}

    if namespace.config:
        try:
            with open(namespace.config, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, ValueError, RecursionError) as err:
            parser.error(f"cannot read --config file: {err}")
        if not isinstance(overrides, dict):
            parser.error("--config file must hold a JSON object")
        unknown = set(overrides) - set(scope)
        if unknown:
            own_parser.error(f"{command} does not take --config keys {sorted(unknown)}")
        for key, value in overrides.items():
            if not _accepts(scope[key], value):
                parser.error(
                    f"--config key {key!r} must be {_value_type(scope[key]).__name__}, "
                    f"got {json.dumps(value)}"
                )
        resolved.update(overrides)

    for name, option in scope.items():
        flag_value = getattr(namespace, name)
        if flag_value == []:
            # argparse (Python 3.11, at least) drops a value of exactly "--"
            # from "--flag=--" and stores the empty list left over
            flag_value = "--"
        if flag_value is not None:
            resolved[name] = flag_value
        if resolved.get(name) == 0 and option.metadata.get("zero_disables"):
            resolved[name] = None

    try:
        return RunConfig(**resolved)
    except (TypeError, ValueError) as err:
        # a range error names the library's parameter: name the flag instead
        name, _, rule = str(err).partition(" ")
        option = _OPTIONS.get(_RENAMED.get(name, name))
        parser.error(f"{_flag(option)} {rule}" if option else str(err))


def render_args(config: RunConfig) -> list[str]:
    """Inverse of parse_args: argv of the command's own flags that reproduces
    ``config`` exactly when its other fields hold their defaults.

    Values go as ``--flag=value``, so one starting with a dash stays a value.
    """
    argv = [config.command]
    for name, option in _scope(config.command).items():
        value = getattr(config, name)
        if value is None and option.metadata.get("zero_disables"):
            value = 0
        if _value_type(option) is bool:
            if value:
                argv.append(_flag(option))
        elif value is not None:
            argv.append(f"{_flag(option)}={value}")
    return argv


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _atomic_write(path: str, write: Callable) -> None:
    """Write through a temp file in the target directory, then rename.

    A directory that cannot take the temp file is an io error on ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".santrauka-", suffix=".part")
    except OSError as err:
        raise OSError(f"cannot write {path}: {err.strerror}") from None
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


def _write_lines(path: str, lines) -> None:
    _atomic_write(path, lambda fh: fh.writelines(line + "\n" for line in lines))


def _ingest(config: RunConfig) -> tuple[list, list]:
    """The articles of --input and the errors of its malformed lines."""
    ingest_errors: list = []
    return list(ingest(config.input, ingest_errors)), ingest_errors


def _header(config: RunConfig, ingest_errors: list) -> dict:
    """The first keys of every report over an ingested corpus."""
    return {"config": asdict(config), "ingest_errors": len(ingest_errors)}


def _filter_report(config: RunConfig, report, ingest_errors: list) -> str:
    """The JSON report of filter, and of stats with --output."""
    return _dump({**_header(config, ingest_errors), "report": report.as_dict()})


def _filter_pass(config: RunConfig):
    """Kept articles, the filter report, and the ingest errors."""
    articles, ingest_errors = _ingest(config)
    filter_config = config.filter_config()
    decisions = [filter_article(article, filter_config) for article in articles]
    report = corpus_stats(zip(articles, decisions))
    kept = [a for a, d in zip(articles, decisions) if d is None]
    return kept, report, ingest_errors


def _cmd_filter(config: RunConfig) -> int:
    started = time.monotonic()
    kept, report, ingest_errors = _filter_pass(config)
    _write_lines(config.output, map(to_json_line, kept))
    print(_filter_report(config, report, ingest_errors))
    _progress(
        f"filter: kept {report.kept}/{report.total} articles "
        f"({len(ingest_errors)} bad lines) in {time.monotonic() - started:.1f}s"
    )
    return 0


def _cmd_stats(config: RunConfig) -> int:
    _, report, ingest_errors = _filter_pass(config)
    print(format_stats_table(report))
    if config.output:
        _write_lines(config.output, [_filter_report(config, report, ingest_errors)])
    return 0


def _cmd_split(config: RunConfig) -> int:
    articles, ingest_errors = _ingest(config)
    train, validation = split_validation(articles, config.n_validation, config.seed)
    base = config.output.removesuffix(".jsonl")
    train_path, valid_path = f"{base}.train.jsonl", f"{base}.valid.jsonl"
    _write_lines(train_path, map(to_json_line, train))
    _write_lines(valid_path, map(to_json_line, validation))
    payload = {
        **_header(config, ingest_errors),
        "train": {"path": train_path, "count": len(train)},
        "validation": {"path": valid_path, "count": len(validation)},
    }
    print(_dump(payload))
    return 0


def _train_model(config: RunConfig, texts: list[str]) -> NGramModel:
    """The model of the segmented texts; without --vocab, of the texts with
    the character vocabulary built from them, which train_ngram counts as
    arrays without segmenting."""
    if config.vocab:
        vocab = Vocabulary.load(config.vocab)
        streams = [viterbi_segment(text, vocab) for text in texts]
    else:
        streams = _CharCorpus(texts)
    return train_ngram(streams, config.ngram_order, config.alpha)


def _cmd_train_lm(config: RunConfig) -> int:
    started = time.monotonic()
    articles, ingest_errors = _ingest(config)
    texts = [article.summary for article in articles]
    model = _train_model(config, texts)
    blob = json.dumps(model.to_dict(), ensure_ascii=False)
    _atomic_write(config.output, lambda fh: fh.write(blob))
    payload = {
        **_header(config, ingest_errors),
        "sequences": len(texts),
        "vocab_size": len(model.vocab),
        "contexts": len(model.counts),
    }
    print(_dump(payload))
    _progress(f"train-lm: {len(texts)} summaries in {time.monotonic() - started:.1f}s")
    return 0


def _decode(
    config: RunConfig, model: NGramModel, texts: list[str], limit: int | None = None
) -> tuple[list, dict[int, str]]:
    """Decode the first ``limit`` ids of each segmented text; the results in
    text order, None where one failed, and the message of each failed index.

    A text that cannot be segmented fails alone and, like a malformed
    request line, takes no seed. A character vocabulary maps each character
    to one id, so it segments only the first ``limit`` characters: the same
    ids, and without unk the same error where the head holds a character it
    lacks. A character past the head is never read, so it fails nothing.
    """
    vocab = model.vocab
    head = limit if vocab.max_token_len <= 1 else None
    errors: dict[int, str] = {}
    prompts: dict[int, tuple] = {}
    for i, text in enumerate(texts):
        try:
            prompts[i] = viterbi_segment(text[:head], vocab).ids[:limit]
        except ValueError as err:
            errors[i] = f"ValueError: {err}"
    slots, failed = list(prompts), []
    decoded = batch_decode(model, list(prompts.values()), config.decode_config(),
                           workers=config.workers, errors=failed)
    errors.update((slots[j], message) for j, message in failed)
    results = dict(zip(slots, decoded))
    return [results.get(i) for i in range(len(texts))], errors


def _summary(config: RunConfig, scored: list) -> tuple[dict | None, str | None]:
    """The aggregate of the scored pairs and its table, which also goes to
    stderr; (None, None) when nothing was scored."""
    if not scored:
        return None, None
    summary = aggregate(scored)
    table = render_table({config.method: summary})
    _progress(table)
    return summary.as_dict(), table


def _read_requests(config: RunConfig, keys: tuple[str, ...]):
    """Yield ``(line_no, record, bad)`` per line of --input; a line that is
    malformed, lacks "id" or a key, or holds a non-string under a key has a
    None record and its ``{"line", "error"}`` entry as ``bad``."""
    for line_no, record, error in read_jsonl(config.input, ("id", *keys)):
        wrong = [key for key in keys if error is None and not isinstance(record[key], str)]
        if wrong:
            error = f"key {wrong[0]!r} must be a string"
        bad = None if error is None else {"line": line_no, "error": error}
        yield line_no, None if bad else record, bad


def _cmd_decode(config: RunConfig) -> int:
    started = time.monotonic()
    model = NGramModel.load(config.model)
    lines = list(_read_requests(config, ("prompt",)))
    requests = [record for _, record, bad in lines if bad is None]
    bad_lines = [bad for _, _, bad in lines if bad is not None]
    results, errors = _decode(config, model, [r["prompt"] for r in requests])
    config_echo = asdict(config)
    records = list(bad_lines)
    for i, (request, result) in enumerate(zip(requests, results)):
        record = {"id": request["id"]}
        if result is None:
            record["error"] = errors[i]
        else:
            record.update(text=result.text, score=result.score, steps=result.steps,
                          config_echo=config_echo)
        records.append(record)
    _write_lines(config.output, (json.dumps(r, ensure_ascii=False) for r in records))
    _progress(
        f"decode: {len(requests)} prompts, {len(errors)} failures, "
        f"{len(bad_lines)} bad lines in {time.monotonic() - started:.1f}s"
    )
    return 0


def _cmd_evaluate(config: RunConfig) -> int:
    records = []
    outputs = []
    bad_lines: list[dict] = []
    for line_no, record, bad in _read_requests(config, ("candidate", "reference")):
        if bad is not None:
            bad_lines.append(bad)
            continue
        try:
            scored = evaluate_pair(
                record["candidate"], record["reference"], stemmer=config.stemmer
            )
        except ValueError as err:
            bad_lines.append({"line": line_no, "error": str(err)})
            continue
        records.append(scored)
        outputs.append({"id": record["id"], **scored.as_dict()})

    _write_lines(
        config.output, (json.dumps(r, ensure_ascii=False) for r in bad_lines + outputs)
    )
    summary, _ = _summary(config, records)
    print(_dump({"config": asdict(config), "skipped": len(bad_lines), "summary": summary}))
    return 0


def _cmd_pipeline(config: RunConfig) -> int:
    started = time.monotonic()
    kept, report, ingest_errors = _filter_pass(config)
    _progress(f"pipeline: kept {len(kept)}/{report.total} articles")
    payload: dict = {**_header(config, ingest_errors), "filter_report": report.as_dict()}
    if not kept:
        payload.update(train_count=0, validation_count=0, decoded=0, decode_errors=0,
                       evaluation=None)
        _write_lines(config.output, [_dump(payload)])
        print(_dump(payload))
        return 0

    train, validation = split_validation(kept, config.n_validation, config.seed)
    if not train:
        raise ValueError("pipeline needs a non-empty training split")
    model = _train_model(config, [article.summary for article in train])
    _progress(
        f"pipeline: trained order-{config.ngram_order} model on {len(train)} summaries"
    )

    results, errors = _decode(
        config, model, [article.body for article in validation], PIPELINE_PROMPT_TOKENS
    )
    scored = [
        evaluate_pair(result.text, article.summary, stemmer=config.stemmer)
        for result, article in zip(results, validation)
        if result is not None
    ]
    payload.update(train_count=len(train), validation_count=len(validation),
                   decoded=len(scored), decode_errors=len(errors))
    payload["evaluation"], table = _summary(config, scored)
    if table is not None:
        payload["table"] = table
    _write_lines(config.output, [_dump(payload)])
    print(_dump(payload))
    _progress(f"pipeline: finished in {time.monotonic() - started:.1f}s")
    return 0


#: Each command's handler and --help line, in the order --help lists them.
_COMMANDS = {
    "filter": (_cmd_filter, "apply keep/reject rules to an article corpus"),
    "stats": (_cmd_stats, "report per-source statistics of the filtered corpus"),
    "split": (_cmd_split, "deterministically set aside a validation set"),
    "train-lm": (_cmd_train_lm, "train an n-gram language model on article summaries"),
    "decode": (_cmd_decode, "generate text for a file of prompts with a trained model"),
    "evaluate": (_cmd_evaluate, "score candidate/reference summary pairs"),
    "pipeline": (_cmd_pipeline,
                 "run filter, split, train-lm, decode, and evaluate end to end"),
}
COMMANDS = tuple(_COMMANDS)


def run(config: RunConfig) -> int:
    """Execute the selected command; 0 on success, 1 on categorized failure.
    A RunConfig checks its option values when built, so run() does not again."""
    try:
        handler, _ = _COMMANDS[config.command]
        return handler(config)
    except FileNotFoundError as err:
        print(f"error: input: {err}", file=sys.stderr)
    except (ValueError, KeyError, RecursionError) as err:
        # RecursionError: a model or vocabulary file nested past the limit
        print(f"error: data: {err}", file=sys.stderr)
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
    except RuntimeError as err:
        # a broken pool can exist only once its module is loaded, so an
        # unloaded module means the error is not a worker's
        pool = sys.modules.get("concurrent.futures.process")
        if pool is None or not isinstance(err, pool.BrokenProcessPool):
            raise
        print(f"error: worker: {err}", file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    config = parse_args(sys.argv[1:] if argv is None else argv)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
