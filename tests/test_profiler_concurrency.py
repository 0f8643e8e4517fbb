"""Profiler thread-safety under concurrent writers and readers."""

import threading

from repro.pilot.profiler import Profiler


def _clock_factory():
    state = {"t": 0.0}

    def now() -> float:
        state["t"] += 1.0
        return state["t"]

    return now


class TestConcurrentWriters:
    def test_events_from_many_threads_all_land(self):
        prof = Profiler(_clock_factory())
        nthreads, per_thread = 8, 500
        barrier = threading.Barrier(nthreads)

        def writer(tid: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                prof.event("tick", f"t{tid}", i=i)

        threads = [
            threading.Thread(target=writer, args=(tid,))
            for tid in range(nthreads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(prof) == nthreads * per_thread
        for tid in range(nthreads):
            mine = prof.events("tick", f"t{tid}")
            assert [ev.attrs["i"] for ev in mine] == list(range(per_thread))

    def test_iteration_during_writes_sees_consistent_prefix(self):
        prof = Profiler(_clock_factory())
        stop = threading.Event()

        def writer() -> None:
            i = 0
            while not stop.is_set():
                prof.event("tick", "w", i=i)
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(50):
                seen = [ev.attrs["i"] for ev in prof]
                # Any snapshot must be a gap-free prefix of the stream.
                assert seen == list(range(len(seen)))
        finally:
            stop.set()
            thread.join()
