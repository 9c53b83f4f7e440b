"""The retired on-disk result cache.

Nothing is read from or written to disk: results are memoised per process
and per degree by `enumerate.per_degree`, behind the degree cap.  `load`
is kept, as a lookup that always misses, because the benchmark's tracer
(perfbench/tracer.py) wraps `cache.load` by name and its tests expect every
traced layer function to exist.  Delete this module when the benchmark
stops tracing it.
"""


def load(name, degree):
    """Return None: no result is served from disk."""
    return None
