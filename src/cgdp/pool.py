"""The one process pool recipe: workers forked from the calling process.

``cgdp ablate`` maps its seeds over such a pool and ``cgdp verify`` runs
its prop1, prop2 and theorem1 checks in one.  Only a task's inputs and
its result cross between processes, so each task returns what it would
in the calling process.
"""

__all__ = ["fork_pool"]


def fork_pool(workers):
    """A ``ProcessPoolExecutor`` of ``workers`` forked processes, for use
    in a ``with`` block, which joins them.

    fork: a worker starts with cgdp already imported, and cgdp itself
    starts no thread that a fork could catch holding a lock.
    """
    # imported here so that importing cgdp stays as fast as before
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"))
