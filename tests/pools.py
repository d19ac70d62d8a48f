"""A process pool stand-in for ``batch_decode``'s fan-out, run in this process."""

from __future__ import annotations

import concurrent.futures
import sys
from contextlib import contextmanager

import pytest


@contextmanager
def in_process_pool():
    """Fan-outs of ``batch_decode`` start their one worker in this process
    and map there; yields the list of pool sizes asked for."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    with pytest.MonkeyPatch.context() as patch:
        # batch_decode imports the pool where it fans out, so patch its source;
        # the worker's model is restored with it
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        patch.setattr(sys.modules["santrauka.decode"], "_WORKER_MODEL", None)
        yield sizes
