"""Tests for profiler, session store, session, launch methods and staging."""

from pathlib import Path

import pytest

from repro.cluster.platforms import get_platform
from repro.exceptions import ConfigurationError, LaunchError, StagingError
from repro.pilot.agent.launch_method import ForkLaunch, MPIExecLaunch, get_launch_method
from repro.pilot.agent.staging import LocalStager, resolve_placeholders
from repro.pilot.db import SessionStore
from repro.pilot.description import ComputeUnitDescription, StagingDirective
from repro.pilot.profiler import Profiler
from repro.pilot.session import Session
from repro.pilot.unit import ComputeUnit


class TestProfiler:
    def make(self):
        clock = iter(range(100))
        return Profiler(lambda: float(next(clock)))

    def test_events_recorded_in_order(self):
        prof = self.make()
        prof.event("a", "x")
        prof.event("b", "x")
        names = [e.name for e in prof]
        assert names == ["a", "b"]
        assert len(prof) == 2

    def test_filtering_by_name_and_uid(self):
        prof = self.make()
        prof.event("state", "u1", state="NEW")
        prof.event("state", "u2", state="NEW")
        prof.event("other", "u1")
        assert len(prof.events("state")) == 2
        assert len(prof.events("state", "u1")) == 1
        assert len(prof.events(uid="u1")) == 2

    def test_first_last_span(self):
        prof = self.make()
        prof.event("start", "x")  # t=0
        prof.event("noise", "x")  # t=1
        prof.event("stop", "x")   # t=2
        assert prof.first("start").time == 0.0
        assert prof.last("stop").time == 2.0
        assert prof.span("start", "stop") == 2.0
        assert prof.span("start", "missing") is None

    def test_attrs_stored(self):
        prof = self.make()
        event = prof.event("x", "u", n=42)
        assert event.attrs == {"n": 42}


class TestSessionStore:
    def test_insert_get(self):
        store = SessionStore()
        store.insert("units", "u1", {"state": "NEW"})
        doc = store.get("units", "u1")
        assert doc["state"] == "NEW"
        assert doc["_id"] == "u1"

    def test_duplicate_insert_rejected(self):
        store = SessionStore()
        store.insert("units", "u1", {})
        with pytest.raises(KeyError):
            store.insert("units", "u1", {})

    def test_update_and_find(self):
        store = SessionStore()
        store.insert("units", "u1", {"state": "NEW", "pilot": "p1"})
        store.insert("units", "u2", {"state": "DONE", "pilot": "p1"})
        store.update("units", "u1", {"state": "DONE"})
        done = store.find("units", state="DONE")
        assert {d["_id"] for d in done} == {"u1", "u2"}
        assert store.find("units", state="NEW") == []

    def test_update_missing_raises(self):
        with pytest.raises(KeyError):
            SessionStore().update("units", "ghost", {})

    def test_documents_are_copies(self):
        store = SessionStore()
        original = {"nested": {"a": 1}}
        store.insert("c", "x", original)
        fetched = store.get("c", "x")
        fetched["nested"]["a"] = 99
        assert store.get("c", "x")["nested"]["a"] == 1

    def test_count_and_collections(self):
        store = SessionStore()
        store.insert("a", "1", {})
        store.insert("b", "2", {})
        assert store.count("a") == 1
        assert store.count("ghost") == 0
        assert store.collections() == ["a", "b"]


class TestSession:
    def test_local_session_has_sandbox(self):
        session = Session(mode="local")
        assert session.sandbox is not None and session.sandbox.exists()
        sandbox = session.sandbox
        session.close()
        assert not sandbox.exists()  # owned temp dir removed

    def test_explicit_sandbox_not_removed(self, tmp_path):
        sandbox = tmp_path / "keep"
        session = Session(mode="local", sandbox=sandbox)
        session.close()
        assert sandbox.exists()

    def test_sim_session_uses_virtual_clock(self):
        session = Session(mode="sim", platform="xsede.comet")
        assert session.now() == 0.0
        session.sim.schedule(5.0, lambda: None)
        session.run_events()
        assert session.now() == 5.0
        session.close()

    def test_local_session_has_no_simulator(self):
        session = Session(mode="local")
        with pytest.raises(ConfigurationError):
            _ = session.sim
        session.close()

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            Session(mode="quantum")

    def test_context_manager_and_idempotent_close(self):
        with Session(mode="local") as session:
            pass
        assert session.closed
        session.close()  # second close is a no-op


class TestSessionWait:
    def test_sim_wait_steps_until_the_predicate_holds(self):
        session = Session(mode="sim", platform="xsede.comet")
        fired = []
        for t in (1.0, 2.0, 3.0):
            session.sim.schedule(t, lambda t=t: fired.append(t))
        assert session.wait_until(lambda: len(fired) == 2)
        assert session.now() == 2.0  # the third event is still pending
        session.close()

    def test_sim_wait_on_a_drained_simulation(self):
        session = Session(mode="sim", platform="xsede.comet")
        assert not session.wait_until(lambda: False)
        with pytest.raises(ValueError, match="dry"):
            session.wait_until(lambda: False,
                               drained=lambda: ValueError("dry"))
        session.close()

    def test_local_wait_times_out_without_a_notify(self):
        session = Session(mode="local")
        assert not session.wait_until(lambda: False, timeout=0.05)
        session.close()

    def test_local_notifies_from_racing_threads_are_never_lost(self):
        # Four pairs of threads (more threads than cores) pass turns back
        # and forth through one session, under a tiny switch interval.
        # Each turn is a wait that only the other thread's notify ends,
        # so one wake-up lost between a predicate test and its wait
        # stalls that pair until the timeout.
        import sys
        import threading
        import time

        session = Session(mode="local")
        rounds, pairs = 200, 4
        turns = [[0] for _ in range(pairs)]
        stalled = []

        def player(turn, parity):
            def my_turn():
                mine = turn[0] % 2 == parity
                # A predicate may block (on a driver lock, say): yield
                # here to widen the window a lost wake-up would need.
                time.sleep(0)
                return mine

            for _ in range(rounds):
                if not session.wait_until(my_turn, timeout=10):
                    stalled.append(turn)
                    return
                turn[0] += 1  # only the player whose turn it is writes
                session.notify()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [
            threading.Thread(target=player, args=(turn, parity))
            for turn in turns for parity in (0, 1)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not stalled
        assert [turn[0] for turn in turns] == [2 * rounds] * pairs
        session.close()


class TestLaunchMethods:
    def test_fork_for_serial(self):
        description = ComputeUnitDescription(executable="x")
        assert isinstance(get_launch_method(description), ForkLaunch)

    def test_mpi_for_multicore(self):
        description = ComputeUnitDescription(executable="x", cores=4, mpi=True)
        assert isinstance(get_launch_method(description), MPIExecLaunch)

    def test_fork_rejects_multicore(self):
        with pytest.raises(LaunchError):
            ForkLaunch().validate(
                ComputeUnitDescription(executable="x", cores=2, mpi=True)
            )

    def test_mpi_overhead_grows_with_ranks(self):
        platform = get_platform("xsede.stampede")
        method = MPIExecLaunch()
        assert method.launch_overhead(64, platform) > method.launch_overhead(
            2, platform
        )

    def test_command_lines(self):
        description = ComputeUnitDescription(
            executable="pmemd", arguments=["-i", "in"], cores=8, mpi=True
        )
        assert get_launch_method(description).command_line(description) == (
            "mpirun -np 8 pmemd -i in"
        )


def _no_failure(units, exc):
    raise AssertionError(f"staging failed: {exc}")


class TestStaging:
    def test_placeholder_resolution(self):
        pilot_sandbox = Path("/p")
        unit_sandboxes = {"unit.1": Path("/p/unit.1")}
        assert resolve_placeholders("$SHARED/f", pilot_sandbox, unit_sandboxes) == Path("/p/f")
        assert resolve_placeholders("$PILOT_SANDBOX/g", pilot_sandbox, unit_sandboxes) == Path("/p/g")
        assert resolve_placeholders("$UNIT_unit.1/out.txt", pilot_sandbox, unit_sandboxes) == Path("/p/unit.1/out.txt")
        assert resolve_placeholders("/abs/path", pilot_sandbox, unit_sandboxes) == Path("/abs/path")

    def test_unknown_unit_placeholder_raises(self):
        with pytest.raises(StagingError):
            resolve_placeholders("$UNIT_ghost/x", Path("/p"), {})

    def make_stager_and_unit(self, tmp_path):
        session = Session(mode="local", sandbox=tmp_path)
        stager = LocalStager(tmp_path)
        unit = ComputeUnit(ComputeUnitDescription(executable="x"), session)
        stager.register_unit(unit)
        return session, stager, unit

    def test_register_creates_sandbox(self, tmp_path):
        session, stager, unit = self.make_stager_and_unit(tmp_path)
        assert Path(unit.sandbox).is_dir()
        session.close()

    def test_link_and_copy_directives(self, tmp_path):
        session, stager, unit = self.make_stager_and_unit(tmp_path)
        (tmp_path / "shared.txt").write_text("shared-data")
        unit.description.input_staging.extend(
            [
                StagingDirective(source="$SHARED/shared.txt", target="linked.txt",
                                 action="link"),
                StagingDirective(source="$SHARED/shared.txt", target="copied.txt",
                                 action="copy"),
            ]
        )
        done = []
        stager.stage_in_bulk([unit], done.append, _no_failure)
        assert done == [[unit]]
        sandbox = Path(unit.sandbox)
        assert (sandbox / "linked.txt").is_symlink()
        assert (sandbox / "copied.txt").read_text() == "shared-data"
        session.close()

    def test_stage_out_to_shared(self, tmp_path):
        session, stager, unit = self.make_stager_and_unit(tmp_path)
        Path(unit.sandbox, "result.txt").write_text("out")
        unit.description.output_staging.append(
            StagingDirective(source="result.txt", target="$SHARED/collected.txt")
        )
        done = []
        stager.stage_out_bulk([unit], done.append, _no_failure)
        assert done == [[unit]]
        assert (tmp_path / "collected.txt").read_text() == "out"
        session.close()

    def test_missing_source_raises(self, tmp_path):
        """The StagingError of a missing source fails only that unit: it
        reaches the failed callback instead of propagating."""
        session, stager, unit = self.make_stager_and_unit(tmp_path)
        unit.description.input_staging.append(
            StagingDirective(source="$SHARED/ghost.txt", target="x")
        )
        done, failed = [], []
        stager.stage_in_bulk([unit], done.append,
                             lambda units, exc: failed.append((units, exc)))
        assert done == []
        ((units, exc),) = failed
        assert units == [unit]
        assert isinstance(exc, StagingError)
        assert "does not exist" in str(exc)
        session.close()
