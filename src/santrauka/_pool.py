"""The process-pool policy shared by every fan-out in the package."""

from concurrent.futures import ProcessPoolExecutor


def map_ordered(fn, items: list, workers: int) -> list:
    """``[fn(item) for item in items]`` over ``workers`` processes, in order.

    Serial when ``workers`` <= 1 or there is at most one item. Chunks are
    about a quarter of a worker's share, so no worker is left with a long
    tail. ``fn`` and the items must pickle.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunksize = max(1, len(items) // (workers * 4))
        return list(pool.map(fn, items, chunksize=chunksize))
