"""Tests for pattern classes (parametrization, validation, hooks)."""

import pytest

from repro.core.kernel_plugin import Kernel
from repro.core.patterns import (
    BagOfTasks,
    EnsembleExchange,
    EnsembleOfPipelines,
    PatternSequence,
    SimulationAnalysisLoop,
)
from repro.exceptions import PatternError


def sleep_kernel() -> Kernel:
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = ["--duration=0"]
    return kernel


class TestEnsembleOfPipelines:
    def test_stage_dispatch_to_methods(self):
        class App(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

        app = App(ensemble_size=2, pipeline_size=1)
        app.validate()
        assert isinstance(app.get_stage(1, 1), Kernel)

    def test_missing_stage_method_caught_by_validate(self):
        class App(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

        app = App(ensemble_size=2, pipeline_size=2)  # stage_2 missing
        with pytest.raises(PatternError, match="stage_2"):
            app.validate()

    def test_generic_stage_override(self):
        class App(EnsembleOfPipelines):
            def stage(self, stage_number, instance):
                return sleep_kernel()

        app = App(ensemble_size=1, pipeline_size=3)
        app.validate()
        assert isinstance(app.get_stage(3, 1), Kernel)

    def test_out_of_range_rejected(self):
        class App(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

        app = App(ensemble_size=2, pipeline_size=1)
        with pytest.raises(PatternError):
            app.get_stage(2, 1)
        with pytest.raises(PatternError):
            app.get_stage(1, 3)
        with pytest.raises(PatternError):
            app.get_stage(0, 1)

    def test_non_kernel_return_rejected(self):
        class App(EnsembleOfPipelines):
            def stage_1(self, instance):
                return "not a kernel"

        app = App(ensemble_size=1, pipeline_size=1)
        with pytest.raises(PatternError, match="must return a Kernel"):
            app.get_stage(1, 1)

    @pytest.mark.parametrize("size,stages", [(0, 1), (1, 0), (-3, 2)])
    def test_positive_parameters_required(self, size, stages):
        class App(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

        with pytest.raises(PatternError):
            App(ensemble_size=size, pipeline_size=stages)

    def test_bool_is_not_a_valid_size(self):
        class App(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

        with pytest.raises(PatternError):
            App(ensemble_size=True, pipeline_size=1)



class TestStageDispatch:
    """The driver looks each stage's hook up once; what a user defines
    decides which hook that is, as before."""

    def test_overridden_stage_drives_the_run(self, sim_handle_factory):
        calls = []

        class App(EnsembleOfPipelines):
            def stage(self, stage_number, instance):
                calls.append((stage_number, instance))
                return sleep_kernel()

            def stage_1(self, instance):  # never called: stage() wins
                raise AssertionError("stage() is overridden")

        app = App(ensemble_size=3, pipeline_size=2)
        sim_handle_factory().run(app)
        assert sorted(calls) == [(s, i) for s in (1, 2) for i in (1, 2, 3)]
        assert len(app.units) == 6 and not app.failed_units

    def test_stage_methods_drive_the_run(self, sim_handle_factory):
        class App(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

            def stage_2(self, instance):
                kernel = sleep_kernel()
                kernel.tags["second"] = instance
                return kernel

        app = App(ensemble_size=2, pipeline_size=2)
        handle = sim_handle_factory()
        handle.run(app)
        store = handle.session.unit_store
        rows = [unit._i for unit in app.units]
        assert sorted(store.tag_values(rows, "stage")) == [1, 1, 2, 2]
        assert sorted(v for v in store.tag_values(rows, "second") if v) == [1, 2]

    def test_missing_stage_method_raises_one_error_everywhere(self):
        class App(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

        app = App(ensemble_size=2, pipeline_size=2)
        with pytest.raises(PatternError, match="stage_2") as at_validate:
            app.validate()
        with pytest.raises(PatternError, match="stage_2") as at_get_stage:
            app.get_stage(2, 1)
        with pytest.raises(PatternError, match="stage_2") as at_stage:
            app.stage(2, 1)
        assert (str(at_validate.value) == str(at_get_stage.value)
                == str(at_stage.value))
        assert isinstance(app.get_stage(1, 2), Kernel)

    def test_missing_stage_method_fails_the_run_before_submitting(
        self, sim_handle_factory
    ):
        class App(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

        app = App(ensemble_size=2, pipeline_size=3)
        with pytest.raises(PatternError, match="stage_2"):
            sim_handle_factory().run(app)
        assert app.units == []

    @pytest.mark.parametrize("override", [False, True])
    def test_non_kernel_return_names_the_hook(self, override):
        class Methods(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

            def stage_2(self, instance):
                return None

        class Generic(EnsembleOfPipelines):
            def stage(self, stage_number, instance):
                return sleep_kernel() if stage_number == 1 else "kernel"

        app = (Generic if override else Methods)(ensemble_size=3,
                                                 pipeline_size=2)
        assert isinstance(app.get_stage(1, 3), Kernel)
        for _ in range(2):  # the looked-up hook is checked on every call
            with pytest.raises(
                PatternError,
                match=r"stage_2\(instance=3\) must return a Kernel, got",
            ):
                app.get_stage(2, 3)

    def test_non_kernel_return_fails_the_run(self, sim_handle_factory):
        class App(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

            def stage_2(self, instance):
                return 42

        with pytest.raises(PatternError, match="must return a Kernel"):
            sim_handle_factory().run(App(ensemble_size=2, pipeline_size=2))

    def test_out_of_range_is_checked_after_a_lookup(self):
        class App(EnsembleOfPipelines):
            def stage_1(self, instance):
                return sleep_kernel()

        app = App(ensemble_size=2, pipeline_size=1)
        app.get_stage(1, 1)
        with pytest.raises(PatternError, match="instance 3 out of range"):
            app.get_stage(1, 3)
        with pytest.raises(PatternError, match="stage 2 out of range"):
            app.get_stage(2, 1)

class TestBagOfTasks:
    def test_task_hook_required(self):
        bag = BagOfTasks(size=3)
        with pytest.raises(PatternError, match="task"):
            bag.validate()

    def test_stage_routes_to_task(self):
        class Bag(BagOfTasks):
            def task(self, instance):
                return sleep_kernel()

        bag = Bag(size=3)
        bag.validate()
        assert isinstance(bag.get_stage(1, 2), Kernel)
        assert bag.pipeline_size == 1


class TestSimulationAnalysisLoop:
    def make(self, **kwargs):
        class App(SimulationAnalysisLoop):
            def simulation_stage(self, iteration, instance):
                return sleep_kernel()

            def analysis_stage(self, iteration, instance):
                return sleep_kernel()

        defaults = dict(iterations=2, simulation_instances=4, analysis_instances=1)
        defaults.update(kwargs)
        return App(**defaults)

    def test_valid_pattern(self):
        app = self.make()
        app.validate()
        assert isinstance(app.get_simulation(1, 1), Kernel)
        assert isinstance(app.get_analysis(2, 1), Kernel)

    def test_hooks_required(self):
        class NoSim(SimulationAnalysisLoop):
            def analysis_stage(self, iteration, instance):
                return sleep_kernel()

        with pytest.raises(PatternError, match="simulation_stage"):
            NoSim(iterations=1, simulation_instances=1).validate()

        class NoAna(SimulationAnalysisLoop):
            def simulation_stage(self, iteration, instance):
                return sleep_kernel()

        with pytest.raises(PatternError, match="analysis_stage"):
            NoAna(iterations=1, simulation_instances=1).validate()

    def test_default_pre_post_loop_are_none(self):
        app = self.make()
        assert app.pre_loop() is None
        assert app.post_loop() is None


class TestEnsembleExchange:
    def make(self, **kwargs):
        class App(EnsembleExchange):
            def simulation_stage(self, iteration, instance):
                return sleep_kernel()

            def exchange_stage(self, iteration, instances):
                return sleep_kernel()

        defaults = dict(ensemble_size=4, iterations=1)
        defaults.update(kwargs)
        return App(**defaults)

    def test_valid_pattern(self):
        app = self.make()
        app.validate()
        assert isinstance(app.get_simulation(1, 1), Kernel)
        assert isinstance(app.get_exchange(1, (1, 2)), Kernel)

    def test_exchange_mode_validated(self):
        with pytest.raises(PatternError, match="exchange_mode"):
            self.make(exchange_mode="ring")

    def test_default_pairing_is_neighbours(self):
        app = self.make(ensemble_size=6)
        assert app.select_pairs([1, 2, 3, 4]) == [(1, 2), (3, 4)]
        # Gaps break pairs: 2 and 4 are not ladder neighbours.
        assert app.select_pairs([2, 4]) == []
        assert app.select_pairs([3]) == []
        assert app.select_pairs([4, 3]) == [(3, 4)]

    def test_hooks_required(self):
        class NoExchange(EnsembleExchange):
            def simulation_stage(self, iteration, instance):
                return sleep_kernel()

        with pytest.raises(PatternError, match="exchange_stage"):
            NoExchange(ensemble_size=2).validate()


class TestPatternSequence:
    def test_requires_patterns(self):
        with pytest.raises(PatternError):
            PatternSequence([])
        with pytest.raises(PatternError):
            PatternSequence(["not a pattern"])

    def test_no_nesting(self):
        class Bag(BagOfTasks):
            def task(self, instance):
                return sleep_kernel()

        inner = PatternSequence([Bag(size=1)])
        with pytest.raises(PatternError, match="nest"):
            PatternSequence([inner])

    def test_validate_cascades(self):
        bad = BagOfTasks(size=1)  # no task() defined
        seq = PatternSequence([bad])
        with pytest.raises(PatternError):
            seq.validate()


def test_pattern_single_use():
    class Bag(BagOfTasks):
        def task(self, instance):
            return sleep_kernel()

    bag = Bag(size=1)
    bag.executed = True
    with pytest.raises(PatternError, match="already executed"):
        bag.validate()
