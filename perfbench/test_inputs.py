"""Checks of the benchmark's own pieces; run with

    python3 -m pytest perfbench/test_inputs.py -q
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from checks import lcs_oracle  # noqa: E402
from tracing import Tracer, decode_module, patched  # noqa: E402

from santrauka import metrics  # noqa: E402


def _acceptance_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_acceptance", ROOT / "tests" / "test_acceptance.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1010, 0, 7])
def test_pipeline_corpus_matches_acceptance_corpus(seed):
    expected = _acceptance_module()._pipeline_corpus(1000, np.random.default_rng(seed))
    assert inputs.pipeline_corpus(1000, np.random.default_rng(seed)) == expected


def test_patched_restores_every_binding():
    originals = (metrics.rouge_l, decode_module.decode, metrics.evaluate_pair)
    tracer = Tracer()
    with patched(tracer.wrappers()):
        assert metrics.rouge_l is not originals[0]
        record = metrics.evaluate_pair("labas rytas vilniau", "labas vakaras vilniau")
    assert (metrics.rouge_l, decode_module.decode, metrics.evaluate_pair) == originals
    assert record == metrics.evaluate_pair("labas rytas vilniau", "labas vakaras vilniau")
    names = {span[0] for span in tracer.spans}
    assert {"metrics.evaluate", "metrics.tokenize", "metrics.rouge_n", "metrics.rouge_l"} <= names
    assert tracer.counts["metrics.lcs_cells"] == 9


def test_lcs_oracle_small_cases():
    assert lcs_oracle([], ["a"]) == 0
    assert lcs_oracle(list("abcbdab"), list("bdcaba")) == 4
