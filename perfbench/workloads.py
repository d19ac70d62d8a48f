"""The benchmark's workloads: input preparation, timed loop, traced replay.

Every workload is a closed loop with one client: the next operation
starts only when the previous one returned, in this one process, with
no worker processes or threads. ``prepare`` writes a workload's inputs
into its work directory and runs in a child process, so the memory it
takes stays out of the measured process. ``timed`` measures with
tracing off, with the host speed reference of ``speed.py`` between
batches; ``traced`` alternates untraced passes with passes that have
spans around every layer call (see ``tracing.py``), checks that both
produce the same outputs, and hands back the last tracer.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import statistics
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import inputs
from checks import Checks, check_decode, check_record, check_rouge_l
from speed import Laps, SpeedClock
from tracing import Tracer, capturing_batch_decode, decode_module, patched

from santrauka import cli, metrics, tokenizer
from santrauka.corpus import FilterConfig, filter_article, ingest, split_validation
from santrauka.decode import DecodeConfig
from santrauka.lm import NGramModel, train_ngram
from santrauka.tokenizer import char_vocabulary, viterbi_segment

#: Validation articles, as in acceptance criterion 10.
N_VALIDATION = 100
#: The program's own seed for the split and the decoders.
PROGRAM_SEED = 42
MAX_LENGTH = 60

PIPELINE_FLAGS = [
    "--n-validation", str(N_VALIDATION), "--ngram-order", "3", "--method", "beam",
    "--beam-size", "10", "--no-repeat-ngram-size", "2",
    "--max-length", str(MAX_LENGTH), "--seed", str(PROGRAM_SEED),
]

DECODE_CONFIGS = {
    "beam": DecodeConfig(method="beam", beam_size=10, no_repeat_ngram_size=2,
                         max_length=MAX_LENGTH, seed=PROGRAM_SEED),
    "greedy": DecodeConfig(method="greedy", no_repeat_ngram_size=2,
                           max_length=MAX_LENGTH, seed=PROGRAM_SEED),
    "sample": DecodeConfig(method="sample", top_k=20, top_p=0.9, no_repeat_ngram_size=2,
                           max_length=MAX_LENGTH, seed=PROGRAM_SEED),
}
#: Greedy and sample decodes are ~50x cheaper than beam; each gets this
#: share of the beam pass's time per round so their timings are not a
#: handful of milliseconds.
SIDE_SHARE = 0.1
#: Beam prompts per timed batch; the throughput is the median batch rate,
#: so a burst of host noise moves a few batches, not the result.
CHUNK = 10

EVAL_STEMMER = "lithuanian-light"
#: Every this many pairs, one is checked against the DP oracle.
ORACLE_EVERY = 25
#: Pairs timed between two speed references; a pass is ten such batches.
EVAL_CHUNK = 20
#: Untraced and traced passes alternate this many times in a traced run,
#: after one untraced warm-up pass; each side's median pass counts.
TRACE_ROUNDS = 3


@dataclass
class Outcome:
    """What one run attempted, and the metrics it shows."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end metrics by name: (value, unit, note)
    shown: dict = field(default_factory=dict)
    digest: str = ""
    #: set by traced runs
    tracer: Tracer | None = None
    traced_s: float = 0.0
    untraced_s: float = 0.0


def percentiles(seconds: list[float]) -> tuple[float, float | None]:
    """Median and p90 in ms; p90 only when 10 or more samples lie beyond it."""
    ms = [s * 1e3 for s in seconds]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) >= 100 else None
    return statistics.median(ms), p90


def sha256_json(payload) -> str:
    blob = json.dumps(payload, ensure_ascii=False, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def decode_key(result) -> tuple | None:
    return None if result is None else (result.tokens.ids, result.score)


def throughput(rates: list[tuple[float, float]], what: str) -> dict:
    """Shown metrics from (wall, scaled) batch rates: the median of each."""
    note = f"{what} per second, median of {len(rates)} batches"
    return {
        "scaled_ops_per_s": (statistics.median(s for _, s in rates), "1/s",
                             note + ", at reference host speed"),
        "ops_per_s": (statistics.median(w for w, _ in rates), "1/s", note + ", wall clock"),
    }


def alternate(untraced, traced) -> tuple[float, float, list, list, Tracer]:
    """One untraced warm-up pass, then ``TRACE_ROUNDS`` untraced/traced pairs.

    ``untraced()`` and ``traced(tracer)`` each return (seconds, output).
    Gives the median untraced and traced times at reference host speed,
    the outputs of every measured pass of each side, and the tracer of
    the last traced pass.
    """
    untraced()
    clock = SpeedClock()
    plain, spanned = [], []
    for _ in range(TRACE_ROUNDS):
        seconds, out = untraced()
        plain.append((clock.scaled(seconds), out))
        tracer = Tracer()
        seconds, out = traced(tracer)
        spanned.append((clock.scaled(seconds), out))
    return (statistics.median(s for s, _ in plain), statistics.median(s for s, _ in spanned),
            [out for _, out in plain], [out for _, out in spanned], tracer)


def prepare_corpus(workdir: Path, seed: int) -> None:
    records = inputs.pipeline_corpus(inputs.CORPUS_ARTICLES, inputs.corpus_rng(seed))
    inputs.write_jsonl(workdir / "corpus.jsonl", records)


class PipelineAcceptance:
    """``santrauka pipeline`` on the 1000-article acceptance corpus."""

    name = "pipeline-acceptance"
    setup_code = "import santrauka.cli"
    prepare = staticmethod(prepare_corpus)

    def __init__(self, workdir: Path):
        self.report_path = workdir / "report.json"
        self.argv = ["pipeline", "--input", str(workdir / "corpus.jsonl"),
                     "--output", str(self.report_path), *PIPELINE_FLAGS]

    @staticmethod
    def _lapping_decode(laps: Laps) -> dict:
        """A replacement for decode that ends a lap after every CHUNK prompts."""
        original = decode_module.decode
        done = itertools.count(1)

        def decode(*args, **kwargs):
            result = original(*args, **kwargs)
            if next(done) % CHUNK == 0:
                laps.lap()
            return result

        return {original: decode}

    def _run(self, replacements: dict, around=nullcontext) -> tuple[float, int, str]:
        self.report_path.unlink(missing_ok=True)
        with patched(replacements), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            started = perf_counter()
            with around():
                code = cli.main(self.argv)
            elapsed = perf_counter() - started
        text = self.report_path.read_text(encoding="utf-8") if self.report_path.exists() else ""
        return elapsed, code, text

    def _check_report(self, checks: Checks, code: int, text: str) -> dict:
        checks.expect(code == 0 and text != "", f"pipeline exited {code} without a report")
        report = json.loads(text) if text else {}
        total = report.get("filter_report", {}).get("total")
        checks.expect(total == inputs.CORPUS_ARTICLES, f"report total {total} != 1000")
        decoded, count = report.get("decoded"), report.get("validation_count")
        checks.expect(decoded == count == N_VALIDATION,
                      f"decoded {decoded} / validation_count {count}, expected {N_VALIDATION}")
        for key in ("rouge1_f", "rouge2_f", "rougeL_f"):
            mean = (report.get("evaluation") or {}).get(key, {}).get("mean", -1.0)
            checks.expect(0.0 <= mean <= 1.0, f"report {key} mean {mean!r} outside [0, 1]")
        return report

    @staticmethod
    def _work(report: dict) -> tuple[int, int]:
        """(attempted, failed) operations of one pipeline run."""
        ingest_errors = report.get("ingest_errors", 0)
        attempted = (report.get("filter_report", {}).get("total", 0) + ingest_errors
                     + report.get("validation_count", 0) + report.get("decoded", 0))
        return max(attempted, 1), ingest_errors + report.get("decode_errors", 0)

    def _digest(self, report: dict, results: list) -> str:
        config = dict(report.get("config", {}), input=None, output=None)
        texts = [None if r is None else [r.text, repr(r.score)] for r in results]
        return sha256_json({"report": dict(report, config=config), "decodes": texts})

    def timed(self, seconds: float, checks: Checks) -> Outcome:
        out = Outcome()
        times, rates = [], []
        clock = SpeedClock()
        started = perf_counter()
        while not times or perf_counter() - started < seconds:
            calls: list = []
            # one run is ~7 s, so the speed reference also runs inside it,
            # between every CHUNK decoded prompts
            laps = Laps(clock)
            _, code, text = self._run({**capturing_batch_decode(calls),
                                       **self._lapping_decode(laps)}, around=lambda: laps)
            times.append(laps.wall)
            rates.append((1 / laps.wall, 1 / laps.scaled))
            report = self._check_report(checks, code, text)
            checks.expect(len(calls) == 1, f"pipeline called batch_decode {len(calls)} times")
            results = calls[0][2] if calls else []
            if len(times) == 1:
                for i, result in enumerate(results):
                    checks.expect(result is not None, f"prompt {i}: decode failed")
                    if result is not None:
                        check_decode(checks, f"prompt {i}", calls[0][1], result)
                out.digest = self._digest(report, results)
                empty = sum(r is not None and r.text == "" for r in results)
                rouge1 = (report.get("evaluation") or {}).get("rouge1_f", {}).get("mean", 0.0)
            else:
                checks.expect(self._digest(report, results) == out.digest,
                              "pipeline outputs changed between identical runs")
            attempted, failed = self._work(report)
            out.attempted += attempted
            out.failed += failed
        out.shown = {
            **throughput(rates, "pipeline runs"),
            "pipeline_s": (statistics.median(times), "s", f"median of {len(times)} runs"),
            "rouge1_f": (rouge1, "F1", "beam, mean over validation"),
            "empty_output_share": (empty / max(len(results), 1), "share", "beam"),
        }
        return out

    def traced(self, checks: Checks) -> Outcome:
        def untraced():
            elapsed, code, text = self._run({})
            return elapsed, (code, text)

        def traced(tracer):
            elapsed, code, text = self._run(tracer.wrappers(),
                                            around=lambda: tracer.span("cli.main"))
            return elapsed, (code, text)

        untraced_s, traced_s, plain, spanned, tracer = alternate(untraced, traced)
        code, text = plain[0]
        report = self._check_report(checks, code, text)
        checks.expect(all(out == plain[0] for out in plain),
                      "pipeline report changed between identical runs")
        checks.expect(all(out == plain[0] for out in spanned),
                      "traced pipeline report differs from the untraced one")
        check_traced(checks, tracer)
        attempted, failed = self._work(report)
        results = [result for _, _, result in tracer.decodes]
        return Outcome(attempted, failed, digest=self._digest(report, results),
                       tracer=tracer, traced_s=traced_s, untraced_s=untraced_s)


def check_traced(checks: Checks, tracer: Tracer) -> None:
    """Decode results pass the output checks; pair records match evaluate_pair's."""
    for i, (_, config, result) in enumerate(tracer.decodes):
        check_decode(checks, f"traced decode {i}", config, result)
    for i, (args, kwargs, record) in enumerate(tracer.pairs):
        checks.expect(metrics.evaluate_pair(*args, **kwargs) == record,
                      f"traced pair {i}: record differs from evaluate_pair's")
        check_record(checks, f"traced pair {i}", record)


class DecodeSummaryPrefix:
    """Beam, greedy and sample decodes of held-out summary prefixes."""

    name = "decode-summary-prefix"

    @staticmethod
    def prepare(workdir: Path, seed: int) -> None:
        """Train the model from the corpus, save it, and write the prompts."""
        prepare_corpus(workdir, seed)
        kept = [a for a in ingest(workdir / "corpus.jsonl")
                if filter_article(a, FilterConfig()) is None]
        train, validation = split_validation(kept, N_VALIDATION, PROGRAM_SEED)
        vocab = char_vocabulary(a.summary for a in train)
        model = train_ngram([viterbi_segment(a.summary, vocab) for a in train], 3, 1.0, vocab)
        model.save(workdir / "model.json")
        lengths = inputs.prefix_lengths(len(validation), seed)
        prompts = {"prompts": [a.summary[:n] for a, n in zip(validation, lengths)],
                   "references": [a.summary for a in validation]}
        (workdir / "prompts.json").write_text(json.dumps(prompts, ensure_ascii=False),
                                              encoding="utf-8")

    def __init__(self, workdir: Path):
        self.model_path = workdir / "model.json"
        self.setup_code = ("from santrauka.lm import NGramModel\n"
                           f"NGramModel.load({str(self.model_path)!r})")
        prompts = json.loads((workdir / "prompts.json").read_text(encoding="utf-8"))
        self.prompts = prompts["prompts"]
        self.references = prompts["references"]
        # prompt i decodes with seed PROGRAM_SEED + i, as batch_decode does
        self.configs = {
            method: [replace(config, seed=config.seed + i) for i in range(len(self.prompts))]
            for method, config in DECODE_CONFIGS.items()
        }

    def _pass(self, model, method: str, failures: list, indices=None) -> tuple[list, list]:
        times, results = [], []
        for i in range(len(self.prompts)) if indices is None else indices:
            started = perf_counter()
            try:
                prompt = tokenizer.viterbi_segment(self.prompts[i], model.vocab)
                result = decode_module.decode(model, prompt, self.configs[method][i])
            except Exception as err:  # noqa: BLE001 - a failed prompt is counted, not fatal
                result = None
                failures.append(f"{method} prompt {i}: {type(err).__name__}: {err}")
            times.append(perf_counter() - started)
            results.append(result)
        return times, results

    def _digest(self, results: dict) -> str:
        return sha256_json({m: [None if r is None else [r.text, repr(r.score)] for r in rs]
                            for m, rs in sorted(results.items())})

    def timed(self, seconds: float, checks: Checks) -> Outcome:
        model = NGramModel.load(self.model_path)
        count = len(self.prompts)
        times = {method: [] for method in DECODE_CONFIGS}
        first: dict = {method: {} for method in DECODE_CONFIGS}  # prompt index -> result
        failures: list = []
        rates: list = []
        clock = SpeedClock()

        def run(method: str, indices) -> float:
            spent, results = self._pass(model, method, failures, indices)
            spent_s = sum(spent)
            if method == "beam":
                rates.append((len(spent) / spent_s, len(spent) / clock.scaled(spent_s)))
            times[method] += spent
            for i, result in zip(indices, results):
                if i not in first[method]:
                    first[method][i] = result
                    if result is not None:
                        check_decode(checks, f"{method} prompt {i}", self.configs[method][i], result)
                else:
                    checks.expect(decode_key(result) == decode_key(first[method][i]),
                                  f"{method} prompt {i}: output changed when rerun with its seed")
            return spent_s

        chunks = [range(k, min(k + CHUNK, count)) for k in range(0, count, CHUNK)]
        side = {method: itertools.cycle(chunks) for method in ("greedy", "sample")}
        started = perf_counter()
        for chunk in itertools.cycle(chunks):
            if (perf_counter() - started >= seconds
                    and all(len(seen) == count for seen in first.values())):
                break
            beam_s = run("beam", chunk)
            for method in side:
                spent = 0.0
                while not spent or spent < SIDE_SHARE * beam_s:
                    spent += run(method, next(side[method]))

        for message in failures:
            checks.fail(message)
        results = {m: [seen[i] for i in range(count)] for m, seen in first.items()}
        beam = results["beam"]
        scored = [metrics.evaluate_pair(r.text, ref) for r, ref in zip(beam, self.references)
                  if r is not None]
        for i, record in enumerate(scored):
            check_record(checks, f"beam output {i}", record)
        p50, p90 = percentiles(times["beam"])
        n = f"n={len(times['beam'])}"
        shown = throughput(rates, "beam prompts")
        for method, spent in times.items():
            shown[f"{method}_prompts_per_s"] = (len(spent) / sum(spent), "1/s", f"n={len(spent)}")
        shown["beam_p50_ms"] = (p50, "ms", n)
        if p90 is not None:
            shown["beam_p90_ms"] = (p90, "ms", n)
        shown["rouge1_f"] = (statistics.fmean(r.rouge1.f1 for r in scored) if scored else 0.0,
                             "F1", "beam, mean over prompts")
        shown["empty_output_share"] = (sum(r is not None and r.text == "" for r in beam)
                                       / count, "share", "beam")
        return Outcome(sum(map(len, times.values())), len(failures), shown, self._digest(results))

    def traced(self, checks: Checks) -> Outcome:
        model = NGramModel.load(self.model_path)
        failures: list = []

        def untraced():
            started = perf_counter()
            out = {m: self._pass(model, m, failures)[1] for m in DECODE_CONFIGS}
            return perf_counter() - started, out

        def traced(tracer):
            with tracer.span("lm.load"):
                loaded = NGramModel.load(self.model_path)
            tracer.counts["lm.contexts"] += len(loaded.counts)
            counting = tracer.counting(loaded)
            with patched(tracer.wrappers()):
                started = perf_counter()
                out = {m: self._pass(counting, m, failures)[1] for m in DECODE_CONFIGS}
                return perf_counter() - started, out

        untraced_s, traced_s, plain, spanned, tracer = alternate(untraced, traced)
        for message in sorted(set(failures)):
            checks.fail(message)
        keys = [{m: list(map(decode_key, rs)) for m, rs in out.items()} for out in plain + spanned]
        for method in DECODE_CONFIGS:
            checks.expect(all(k[method] == keys[0][method] for k in keys[len(plain):]),
                          f"traced {method} outputs differ from the untraced ones")
            checks.expect(all(k[method] == keys[0][method] for k in keys[:len(plain)]),
                          f"{method} outputs changed between identical passes")
        check_traced(checks, tracer)
        return Outcome(sum(map(len, plain[0].values())), len(set(failures)),
                       digest=self._digest(plain[0]), tracer=tracer,
                       traced_s=traced_s, untraced_s=untraced_s)


class EvaluateLong:
    """evaluate_pair on short and long pairs with the Lithuanian stemmer."""

    name = "evaluate-long"
    setup_code = "import santrauka.metrics"

    @staticmethod
    def prepare(workdir: Path, seed: int) -> None:
        (workdir / "pairs.json").write_text(json.dumps(inputs.evaluation_pairs(seed)),
                                            encoding="utf-8")

    def __init__(self, workdir: Path):
        pairs = json.loads((workdir / "pairs.json").read_text(encoding="utf-8"))
        self.pairs = [tuple(pair) for pair in pairs]

    def _pass(self, failures: list, indices=None) -> tuple[list, list]:
        times, records = [], []
        for i in range(len(self.pairs)) if indices is None else indices:
            candidate, reference = self.pairs[i]
            started = perf_counter()
            try:
                record = metrics.evaluate_pair(candidate, reference, stemmer=EVAL_STEMMER)
            except Exception as err:  # noqa: BLE001 - a failed pair is counted, not fatal
                record = None
                failures.append(f"pair {i}: {type(err).__name__}: {err}")
            times.append(perf_counter() - started)
            records.append(record)
        return times, records

    def _check_first(self, checks: Checks, records: list) -> None:
        for i, record in enumerate(records):
            if record is None:
                continue
            check_record(checks, f"pair {i}", record)
            if i % ORACLE_EVERY in (0, 1):  # one short and one long pair
                check_rouge_l(checks, f"pair {i}", *self.pairs[i], EVAL_STEMMER, record)

    @staticmethod
    def _digest(records: list) -> str:
        return sha256_json([None if r is None else r.as_dict() for r in records])

    def timed(self, seconds: float, checks: Checks) -> Outcome:
        count = len(self.pairs)
        chunks = [range(k, min(k + EVAL_CHUNK, count)) for k in range(0, count, EVAL_CHUNK)]
        times: list = []
        rates: list = []
        failures: list = []
        first = None
        clock = SpeedClock()
        started = perf_counter()
        while not times or perf_counter() - started < seconds:
            records, wall, scaled = [], 0.0, 0.0
            for chunk in chunks:
                spent, chunk_records = self._pass(failures, chunk)
                wall += sum(spent)
                scaled += clock.scaled(sum(spent))
                times += spent
                records += chunk_records
            rates.append((count / wall, count / scaled))
            if first is None:
                first = records
                self._check_first(checks, records)
            else:
                checks.expect(records == first, "pair records changed between identical passes")
        for message in failures:
            checks.fail(message)
        p50, p90 = percentiles(times)
        n = f"n={len(times)}"
        shown = {
            **throughput(rates, "pairs"),
            "eval_pairs_per_s": (len(times) / sum(times), "1/s", n),
            "eval_p50_ms": (p50, "ms", n),
        }
        if p90 is not None:
            shown["eval_p90_ms"] = (p90, "ms", n)
        return Outcome(len(times), len(failures), shown, self._digest(first))

    def traced(self, checks: Checks) -> Outcome:
        failures: list = []

        def untraced():
            started = perf_counter()
            records = self._pass(failures)[1]
            return perf_counter() - started, records

        def traced(tracer):
            with patched(tracer.wrappers()):
                started = perf_counter()
                records = self._pass(failures)[1]
                return perf_counter() - started, records

        untraced_s, traced_s, plain, spanned, tracer = alternate(untraced, traced)
        for message in sorted(set(failures)):
            checks.fail(message)
        checks.expect(all(records == plain[0] for records in plain),
                      "pair records changed between identical passes")
        checks.expect(all(records == plain[0] for records in spanned),
                      "traced pair records differ from evaluate_pair's")
        self._check_first(checks, spanned[-1])
        return Outcome(len(self.pairs), len(set(failures)), digest=self._digest(plain[0]),
                       tracer=tracer, traced_s=traced_s, untraced_s=untraced_s)


WORKLOADS = {w.name: w for w in (PipelineAcceptance, DecodeSummaryPrefix, EvaluateLong)}
