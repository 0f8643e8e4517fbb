"""Tests for the parallel sweep runner and the on-disk run cache."""

from __future__ import annotations

import json

import pytest

from repro import experiments
from repro.__main__ import _SMALL_FIGURE_KWARGS
from repro.experiments.harness import run_figure
from repro.experiments.parallel import RunCache, run_sweep

#: The paper figures, each run at the CLI's ``--small`` sizes.
FIGURES = sorted(_SMALL_FIGURE_KWARGS)

#: Evaluation counter for cache tests (serial, in-process evaluations only).
_CALLS: list[dict] = []


def _square_point(point: dict) -> dict:
    _CALLS.append(point)
    return {"x": point["x"], "y": point["x"] * point["x"]}


def _identity_point(point: dict) -> dict:
    return dict(point)


class TestRunSweep:
    def test_serial_preserves_point_order(self):
        points = [{"x": x} for x in (3, 1, 2)]
        records = run_sweep(_identity_point, points)
        assert [r["x"] for r in records] == [3, 1, 2]

    def test_parallel_matches_serial_record_for_record(self):
        points = [{"x": x} for x in range(8)]
        serial = run_sweep(_square_point, points)
        parallel = run_sweep(_square_point, points, parallel=4)
        assert parallel == serial

    def test_empty_sweep(self):
        assert run_sweep(_identity_point, []) == []

    def test_parallel_one_falls_back_to_serial(self):
        points = [{"x": 5}]
        assert run_sweep(_square_point, points, parallel=4) == [
            {"x": 5, "y": 25}
        ]


class TestRunCache:
    def test_roundtrip(self, tmp_path):
        cache = RunCache(tmp_path)
        point = {"resource": "xsede.stampede", "cores": 16, "seed": 0}
        assert cache.get(point) is None
        cache.put(point, {"ttc": 42.0})
        assert cache.get(point) == {"ttc": 42.0}
        assert len(cache) == 1

    def test_key_covers_every_field(self, tmp_path):
        cache = RunCache(tmp_path)
        base = {"resource": "xsede.stampede", "cores": 16, "seed": 0}
        for variant in (
            {**base, "cores": 32},
            {**base, "seed": 1},
            {**base, "resource": "xsede.comet"},
            {**base, "duration_ps": 6.0},
        ):
            assert cache.key(variant) != cache.key(base)

    def test_key_is_order_insensitive(self, tmp_path):
        cache = RunCache(tmp_path)
        assert cache.key({"a": 1, "b": 2}) == cache.key({"b": 2, "a": 1})

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        point = {"cores": 8, "seed": 3}
        cache.put(point, {"ttc": 1.0})
        cache.path(point).write_text("{ not json")
        assert cache.get(point) is None

    def test_truncated_entry_recomputes_and_overwrites(self, tmp_path):
        """A file cut off mid-write (host died between write and rename,
        disk full...) must behave as a miss, and the recomputed record
        must overwrite the damaged file."""
        cache = RunCache(tmp_path)
        point = {"x": 7}
        cache.put(point, {"x": 7, "y": 49})
        path = cache.path(point)
        intact = path.read_text()
        path.write_text(intact[: len(intact) // 2])  # hand-truncate
        assert cache.get(point) is None
        _CALLS.clear()
        records = run_sweep(_square_point, [point], cache=cache)
        assert records == [{"x": 7, "y": 49}]
        assert len(_CALLS) == 1  # recomputed, not served from the bad file
        assert json.loads(path.read_text())["record"] == {"x": 7, "y": 49}
        assert cache.get(point) == {"x": 7, "y": 49}

    def test_binary_garbage_entry_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        point = {"x": 1}
        cache.put(point, {"y": 1})
        cache.path(point).write_bytes(b"\x00\xff\xfe garbage \x80")
        assert cache.get(point) is None

    def test_wrong_shape_json_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        point = {"x": 1}
        for payload in ("[1, 2, 3]", '"a string"', "42", "null",
                        '{"record": {"y": 1}}'):
            cache.path(point).write_text(payload)
            assert cache.get(point) is None

    def test_mismatched_stored_point_is_a_miss(self, tmp_path):
        cache = RunCache(tmp_path)
        point = {"cores": 8, "seed": 3}
        cache.put(point, {"ttc": 1.0})
        cache.path(point).write_text(
            json.dumps({"point": {"cores": 9, "seed": 3},
                        "record": {"ttc": 1.0}})
        )
        assert cache.get(point) is None

    def test_sweep_skips_cached_points(self, tmp_path):
        cache = RunCache(tmp_path)
        points = [{"x": x} for x in range(5)]
        _CALLS.clear()
        first = run_sweep(_square_point, points, cache=cache)
        assert len(_CALLS) == 5
        again = run_sweep(_square_point, points, cache=cache)
        assert len(_CALLS) == 5  # no re-evaluation
        assert again == first
        # A new point evaluates exactly once more.
        extended = run_sweep(
            _square_point, points + [{"x": 99}], cache=cache
        )
        assert len(_CALLS) == 6
        assert extended[:5] == first


def _faulted_bag_point(point: dict) -> dict:
    """One sweep point that exercises the whole fault machinery.

    Must stay module-level and JSON-in/JSON-out: the parallel path
    pickles it into worker processes, and the equality assertions below
    compare records across processes and cache round-trips.
    """
    import hashlib

    from repro.core.kernel_plugin import Kernel
    from repro.core.patterns import BagOfTasks
    from repro.core.resource_handle import ResourceHandle
    from repro.pilot.retry import RetryPolicy
    from repro.telemetry.export import chrome_trace
    from repro.utils.ids import reset_id_counters

    class _Bag(BagOfTasks):
        def task(self, instance):
            kernel = Kernel(name="misc.sleep")
            kernel.arguments = ["--duration=100"]
            return kernel

    from repro.exceptions import PatternError

    reset_id_counters()
    handle = ResourceHandle(
        "xsede.comet", cores=16, walltime=600, mode="sim",
        seed=point["seed"], fault_rate=point["fault_rate"],
        node_mtbf=120.0, node_repair_time=120.0,
        retry_policy=RetryPolicy(max_attempts=8, backoff_base=2.0,
                                 jitter=0.5, exclude_failed_nodes=False),
    )
    handle.allocate()
    n_failed = 0
    try:
        try:
            handle.run(_Bag(size=point["size"]))
        except PatternError:
            # Exhausted retries are a legitimate outcome of an aggressive
            # fault schedule; the record captures them either way.
            n_failed = 1
    finally:
        handle.deallocate()
    events = list(handle.profile)
    payload = json.dumps(
        chrome_trace(events), sort_keys=True, separators=(",", ":")
    )
    return {
        "ttc": handle.session.now(),
        "n_events": len(events),
        "n_requeues": sum(1 for ev in events if ev.name == "unit_requeue"),
        "failed": n_failed,
        "trace_sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }


class TestFaultedSweeps:
    """Sweeps stay deterministic when the points inject faults.

    The sweep runner fans points across worker processes and caches
    records on disk; neither may perturb a fault-injected run — each
    record embeds the full trace digest, so one extra or reordered
    stream draw anywhere fails these assertions.
    """

    POINTS = [
        {"size": 24, "seed": 3, "fault_rate": 0.15},
        {"size": 24, "seed": 4, "fault_rate": 0.15},
        {"size": 16, "seed": 3, "fault_rate": 0.0},
    ]

    def test_parallel_matches_serial_under_faults(self):
        serial = run_sweep(_faulted_bag_point, self.POINTS)
        parallel = run_sweep(_faulted_bag_point, self.POINTS, parallel=3)
        assert parallel == serial
        assert any(r["n_requeues"] > 0 for r in serial), (
            "fixture must actually exercise the fault machinery"
        )

    def test_cache_warm_equals_cold_under_faults(self, tmp_path):
        cache = RunCache(tmp_path)
        cold = run_sweep(_faulted_bag_point, self.POINTS, cache=cache)
        assert len(cache) == len(self.POINTS)
        warm = run_sweep(_faulted_bag_point, self.POINTS, cache=cache)
        assert warm == cold


class TestFigureSweeps:
    """S4: every figure's ``--parallel`` sweep matches its serial sweep
    record-for-record, and a warm run cache matches a cold one."""

    @staticmethod
    def _run(figure, **options):
        module = getattr(experiments, figure)
        return run_figure(module.points(**_SMALL_FIGURE_KWARGS[figure]),
                          module.report, **options)

    @staticmethod
    def _files(directory) -> dict[str, bytes]:
        return {str(path.relative_to(directory)): path.read_bytes()
                for path in sorted(directory.rglob("*")) if path.is_file()}

    @pytest.mark.parametrize("figure", FIGURES)
    def test_parallel_figure_matches_serial(self, figure, tmp_path):
        """Rows, claims, and each point's spool file and Chrome trace
        (names and bytes) are the same serially and in two workers."""
        runs = {}
        for parallel in (0, 2):
            spool, traces = tmp_path / f"spool{parallel}", tmp_path / f"trace{parallel}"
            result = self._run(figure, parallel=parallel, spool_dir=spool,
                               trace_out=traces)
            runs[parallel] = (result.rows, result.claims,
                              self._files(spool), self._files(traces))
        rows, claims, spools, traces = runs[0]
        assert len(spools) == len(traces) == len(rows)
        assert runs[2] == runs[0]

    def test_figure_cache_reuses_points(self, tmp_path):
        for figure in FIGURES:
            cache_dir = tmp_path / figure
            cold = self._run(figure, cache_dir=cache_dir)
            # One row per point in every figure, so one cache file each.
            assert len(list(cache_dir.glob("*.json"))) == len(cold.rows)
            warm = self._run(figure, cache_dir=cache_dir)
            assert warm.rows == cold.rows, figure
            assert warm.claims == cold.claims, figure
