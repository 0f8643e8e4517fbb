"""Parallel sweep runner and on-disk run cache for the figure experiments.

The figure reproductions and the §V scale envelope all have the same
shape: a *sweep* over independent configuration points (core counts,
task counts, replica counts), each point one self-contained simulated
run.  Points share no state — every run seeds its own RNG streams from
the point's ``seed`` — so they can execute in worker processes, and a
finished point can be reused verbatim by later sweeps.

Two pieces implement that:

* :func:`run_sweep` maps a *point function* over a list of points,
  serially or across a :mod:`multiprocessing` pool (``parallel=N``).
  The point function must be a **module-level callable** (so it can be
  pickled for workers) and a **pure function of its point**: the record
  it returns may depend only on the point's fields, never on process
  state such as id counters.  Under that contract a parallel sweep is
  record-for-record identical to a serial one, which the test suite
  asserts.
* :class:`RunCache` persists one JSON file per finished point, keyed by
  the SHA-256 of the point's canonical JSON — i.e. by
  ``(resource, cores, pattern config, seed)`` and whatever else the
  caller puts in the point dict.  Repeated sweeps (re-running a figure
  while iterating on plots, overlapping core grids across figures)
  skip every point they have seen before.

Points must be JSON-serializable dicts; records must be picklable (and
JSON-serializable when a cache is used).  Keep both to plain scalars,
lists and dicts.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

__all__ = ["RunCache", "run_sweep"]

#: A sweep point: one JSON-serializable configuration dict.
Point = dict
#: What a point function returns: one picklable record.
Record = Any


def _canonical(point: Point) -> str:
    """The canonical JSON form of *point* (also the cache identity)."""
    return json.dumps(point, sort_keys=True, separators=(",", ":"))


class RunCache:
    """On-disk cache of finished sweep points.

    One file per point, named by the SHA-256 of the point's canonical
    JSON, holding ``{"point": <canonical dict>, "record": <record>}``.
    The stored point is compared on read, so a (vanishingly unlikely)
    hash collision or a truncated file degrades to a cache miss, never
    to a wrong record.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(point: Point) -> str:
        """The SHA-256 of *point*'s canonical JSON."""
        return hashlib.sha256(_canonical(point).encode()).hexdigest()

    def path(self, point: Point) -> Path:
        return self.directory / f"{self.key(point)}.json"

    def get(self, point: Point) -> Record | None:
        """The cached record for *point*, or ``None`` on any miss.

        Any defect in the cached file — unreadable, truncated mid-write,
        binary garbage, valid JSON of the wrong shape, or a stored point
        that does not match — degrades to a miss; the caller recomputes
        and :meth:`put` overwrites the bad file.
        """
        try:
            data = json.loads(self.path(point).read_text())
            if not isinstance(data, dict):
                return None
            stored = data.get("point")
            if stored is None or _canonical(stored) != _canonical(
                json.loads(_canonical(point))
            ):
                return None
            return data.get("record")
        except (OSError, TypeError, ValueError):
            return None

    def put(self, point: Point, record: Record) -> Path:
        """Persist *record* for *point* (atomic: write temp, rename)."""
        path = self.path(point)
        payload = json.dumps(
            {"point": json.loads(_canonical(point)), "record": record},
            sort_keys=True,
        )
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(payload + "\n")
        tmp.replace(path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


def _call_point(job: tuple[Callable[[Point], Record], Point]) -> Record:
    point_fn, point = job
    return point_fn(point)


def run_sweep(
    point_fn: Callable[[Point], Record],
    points: Iterable[Point],
    *,
    parallel: int = 0,
    cache: RunCache | None = None,
) -> list[Record]:
    """Evaluate ``point_fn`` over *points*; records in point order.

    ``parallel <= 1`` runs serially in-process (identical to the plain
    loop the figure runners used to contain).  ``parallel = N`` fans
    uncached points out over ``N`` worker processes, one point per task.
    With a *cache*, hits are returned without evaluation and misses are
    persisted after evaluation.
    """
    point_list: Sequence[Point] = list(points)
    records: list[Record] = [None] * len(point_list)
    if cache is not None:
        pending = []
        for index, point in enumerate(point_list):
            hit = cache.get(point)
            if hit is not None:
                records[index] = hit
            else:
                pending.append((index, point))
    else:
        pending = list(enumerate(point_list))

    if pending:
        jobs = [(point_fn, point) for _, point in pending]
        if parallel > 1 and len(pending) > 1:
            with multiprocessing.Pool(min(parallel, len(pending))) as pool:
                fresh = pool.map(_call_point, jobs, chunksize=1)
        else:
            fresh = [_call_point(job) for job in jobs]
        for (index, point), record in zip(pending, fresh):
            records[index] = record
            if cache is not None:
                cache.put(point, record)
    return records
