"""Tests for kernel plugins, the registry and kernel binding."""

import pytest

from repro.cluster.platforms import get_platform
from repro.core.kernel_plugin import Kernel, KernelPlugin, MachineConfig
from repro.core.kernel_registry import (
    get_kernel_plugin,
    list_kernel_plugins,
    register_kernel,
)
from repro.exceptions import KernelError, NoKernelPluginError


class TestRegistry:
    def test_builtins_are_registered(self):
        names = list_kernel_plugins()
        for expected in (
            "misc.mkfile",
            "misc.ccount",
            "misc.sleep",
            "misc.echo",
            "md.amber",
            "md.gromacs",
            "analysis.coco",
            "analysis.lsdmap",
            "exchange.temperature",
        ):
            assert expected in names

    def test_unknown_kernel_raises_with_hint(self):
        with pytest.raises(NoKernelPluginError, match="known:"):
            get_kernel_plugin("md.namd")

    def test_duplicate_registration_rejected(self):
        cls = get_kernel_plugin("misc.sleep")
        with pytest.raises(KernelError, match="already registered"):
            register_kernel(cls)
        register_kernel(cls, replace=True)

    def test_nameless_plugin_rejected(self):
        class Nameless(KernelPlugin):
            pass

        with pytest.raises(KernelError, match="no name"):
            register_kernel(Nameless)

    def test_custom_kernel_registration_and_use(self):
        class Doubler(KernelPlugin):
            name = "test.doubler"
            required_args = ("value",)

            def execute(self, ctx):
                return 2 * int(ctx.arg("value"))

            def duration(self, cores, platform, args):
                return 1.0

        register_kernel(Doubler, replace=True)
        kernel = Kernel(name="test.doubler")
        kernel.arguments = ["--value=21"]
        description = kernel.bind("local.localhost", get_platform("local.localhost"))
        assert description.name == "test.doubler"


class TestKernelBinding:
    def test_missing_required_args_raise(self):
        kernel = Kernel(name="misc.mkfile")  # requires size and filename
        with pytest.raises(KernelError, match="--size"):
            kernel.bind("local.localhost", get_platform("local.localhost"))

    def test_bind_produces_valid_description(self):
        kernel = Kernel(name="misc.mkfile")
        kernel.arguments = ["--size=100", "--filename=f.txt"]
        description = kernel.bind("xsede.comet", get_platform("xsede.comet"))
        assert description.cores == 1
        assert not description.mpi
        assert description.payload is not None
        assert description.duration_model is not None

    def test_multicore_kernel_is_mpi(self):
        kernel = Kernel(name="md.amber")
        kernel.arguments = ["--nsteps=100"]
        kernel.cores = 16
        description = kernel.bind("xsede.stampede", get_platform("xsede.stampede"))
        assert description.mpi
        assert description.cores == 16

    def test_staging_directives_parsed(self):
        kernel = Kernel(name="misc.ccount")
        kernel.arguments = ["--inputfile=in.txt", "--outputfile=out.txt"]
        kernel.link_input_data = ["$SHARED/data.txt > in.txt"]
        kernel.copy_input_data = ["plain.txt"]
        kernel.copy_output_data = ["out.txt > results/out.txt"]
        description = kernel.bind("local.localhost", get_platform("local.localhost"))
        assert description.input_staging[0].action == "link"
        assert description.input_staging[0].source == "$SHARED/data.txt"
        assert description.input_staging[0].target == "in.txt"
        assert description.input_staging[1].action == "copy"
        assert description.input_staging[1].target == "plain.txt"
        assert description.output_staging[0].target == "results/out.txt"

    def test_machine_config_speed_factor_scales_duration(self):
        kernel_comet = Kernel(name="md.gromacs")
        kernel_comet.arguments = ["--nsteps=1000"]
        comet = get_platform("xsede.comet")
        desc_comet = kernel_comet.bind("xsede.comet", comet)
        kernel_generic = Kernel(name="md.gromacs")
        kernel_generic.arguments = ["--nsteps=1000"]
        desc_generic = kernel_generic.bind("unknown.machine", comet)
        # Comet's config is 1.3x vs generic 1.25x -> comet slightly faster.
        assert desc_comet.duration_model(1, comet) < desc_generic.duration_model(1, comet)

    def test_get_arg_helper(self):
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = ["--duration=3"]
        assert kernel.get_arg("duration") == "3"
        assert kernel.get_arg("missing", "7") == "7"

    def test_environment_merging(self):
        class EnvKernel(KernelPlugin):
            name = "test.env"
            machine_configs = {
                "*": MachineConfig(environment={"A": "1", "B": "1"})
            }

            def execute(self, ctx):
                return None

            def duration(self, cores, platform, args):
                return 0.0

        register_kernel(EnvKernel, replace=True)
        kernel = Kernel(name="test.env")
        kernel.environment = {"B": "2"}
        description = kernel.bind("anywhere", get_platform("local.localhost"))
        assert description.environment == {"A": "1", "B": "2"}

    def test_tags_propagate(self):
        kernel = Kernel(name="misc.sleep")
        kernel.arguments = ["--duration=0"]
        kernel.tags = {"stage": 3}
        description = kernel.bind("local.localhost", get_platform("local.localhost"))
        assert description.tags["stage"] == 3


# -- the driver's bind cache -------------------------------------------------


class _Cached(KernelPlugin):
    name = "test.cached"

    def execute(self, ctx):
        return None

    def duration(self, cores, platform, args):
        return float(args.get("seconds", "1"))


class _CachedTwin(_Cached):
    name = "test.cached_twin"


class _Doubled(_Cached):
    def duration(self, cores, platform, args):
        return 2 * super().duration(cores, platform, args)


class _LabelledKernel(Kernel):
    def bind(self, resource, platform):
        description = super().bind(resource, platform)
        description.executable = "labelled"
        return description


def _cached_kernel(cls=Kernel, name="test.cached", **fields):
    kernel = cls(name=name)
    kernel.arguments = ["--seconds=1"]
    kernel.link_input_data = ["a.txt"]
    kernel.copy_input_data = ["a.txt"]
    kernel.copy_output_data = ["a.txt"]
    kernel.environment = {"X": "1"}
    kernel.tags = {"t": 1}
    for attr, value in fields.items():
        setattr(kernel, attr, value)
    return kernel


def _view(description, platform):
    """Every field of *description*, with callables compared by behaviour
    and containers as lists and dicts (a shared description holds tuples
    and read-only mappings)."""
    return (
        description.executable, list(description.arguments),
        dict(description.environment), description.cores, description.mpi,
        description.name, description.payload.__func__,
        description.modelled_duration, description.modelled_runtime(platform),
        list(description.input_staging), list(description.output_staging),
        dict(description.tags),
    )


def _plain(driver, kernel, tags=None):
    """What a unit's description was before the cache: one bind per
    kernel; with *tags*, also the request tags and the pattern."""
    description = kernel.bind(driver.handle.resource, driver.handle.platform)
    if tags is not None:
        description.tags.update(tags)
        description.tags.setdefault("pattern", driver.pattern.uid)
    return description


@pytest.fixture
def driver(sim_handle_factory, monkeypatch):
    """A driver on a simulated handle, with the test plugins registered."""
    from repro.core import kernel_registry
    from repro.core.drivers.eop import EnsembleOfPipelinesDriver
    from repro.core.patterns import EnsembleOfPipelines

    for plugin in (_Cached, _CachedTwin):
        monkeypatch.setitem(kernel_registry._REGISTRY, plugin.name, plugin)
    handle = sim_handle_factory()
    return EnsembleOfPipelinesDriver(EnsembleOfPipelines(ensemble_size=1), handle)


@pytest.fixture
def bind_calls(monkeypatch):
    calls = []
    bind = Kernel.bind

    def counting(self, resource, platform):
        calls.append(self)
        return bind(self, resource, platform)

    monkeypatch.setattr(Kernel, "bind", counting)
    return calls


#: One changed field per entry: ``_cached_kernel(**entry)``.
_VARIANTS = {
    "type": {"cls": _LabelledKernel},
    "name": {"name": "test.cached_twin"},
    "plugin": {"_plugin": _Doubled()},
    "arguments": {"arguments": ["--seconds=2"]},
    "cores": {"cores": 2},
    "uses_mpi": {"uses_mpi": True},
    "link_input_data": {"link_input_data": ["b.txt"]},
    "copy_input_data": {"copy_input_data": ["b.txt"]},
    "copy_output_data": {"copy_output_data": ["b.txt"]},
    "environment": {"environment": {"X": "2"}},
    "data_size": {"data_size": 2048},
    "tags": {"tags": {"t": 2}},
}


def _submit_equal(driver, n=3):
    from repro.core.drivers.base import SubmitRequest

    return driver.submit([
        SubmitRequest(_cached_kernel(), tags={"instance": i}) for i in range(n)
    ])


class TestBindCache:
    @pytest.mark.parametrize("field", sorted(_VARIANTS))
    def test_kernels_differing_in_one_field_bind_apart(self, driver, field):
        platform = driver.handle.platform
        base = driver._bind(_cached_kernel())
        variant = _cached_kernel(**_VARIANTS[field])
        description = driver._bind(variant)
        assert description is not base
        assert _view(description, platform) != _view(base, platform)
        assert _view(description, platform) == _view(
            _plain(driver, variant), platform
        )

    def test_equal_kernels_bind_once(self, driver, bind_calls):
        units = _submit_equal(driver, 5)
        assert len(bind_calls) == 1
        store = driver.session.unit_store
        shared = {id(store.shared_description(u._i)) for u in units}
        assert len(shared) == 1
        assert driver._bind(_cached_kernel()) is store.shared_description(
            units[0]._i
        )
        platform = driver.handle.platform
        for i, unit in enumerate(units):
            expected = _plain(driver, _cached_kernel(), {"instance": i})
            assert _view(unit.description, platform) == _view(expected, platform)
            assert list(unit.description.tags) == ["t", "instance", "pattern"]

    @pytest.mark.parametrize("victim", [0, 1])
    def test_no_unit_can_change_the_shared_description(self, driver, victim):
        platform = driver.handle.platform
        units = _submit_equal(driver)
        pristine = [_view(u.description, platform) for u in units]
        view = units[victim].description
        view.tags["t"] = 99
        view.arguments.append("--seconds=5")
        view.environment["X"] = "9"
        view.input_staging.clear()
        view.output_staging.clear()
        with pytest.raises(AttributeError):
            view.cores = 8
        with pytest.raises(TypeError):
            view.duration_model.args["seconds"] = "7"
        shared = driver.session.unit_store.shared_description(units[0]._i)
        with pytest.raises(AttributeError):
            shared.arguments.append("--seconds=5")
        with pytest.raises(TypeError):
            shared.environment["X"] = "9"
        with pytest.raises(TypeError):
            shared.tags["t"] = 99
        with pytest.raises(AttributeError):
            shared.input_staging.clear()
        assert [_view(u.description, platform) for u in units] == pristine
        assert _view(driver._bind(_cached_kernel()), platform) == _view(
            _plain(driver, _cached_kernel()), platform
        )

    def test_unhashable_tag_falls_back_to_plain_bind(self, driver, bind_calls):
        kernels = [_cached_kernel() for _ in range(2)]
        for kernel in kernels:
            kernel.tags = {"ids": [1, 2]}
        descriptions = [driver._bind(kernel) for kernel in kernels]
        assert len(bind_calls) == 2
        assert driver._bound == {}
        assert descriptions[0] is not descriptions[1]
        assert all(d.tags["ids"] == [1, 2] for d in descriptions)


# -- differential: cached binds equal per-kernel binds over whole runs -------


def _sleep_kernel(seconds, cores=1):
    kernel = Kernel(name="misc.sleep")
    kernel.arguments = [f"--duration={seconds}"]
    kernel.cores = cores
    kernel.uses_mpi = cores > 1
    return kernel


def _eop():
    from repro.core.patterns import EnsembleOfPipelines

    class Pipelines(EnsembleOfPipelines):
        def stage_1(self, instance):
            return _sleep_kernel(30)

        def stage_2(self, instance):
            return _sleep_kernel(10 + instance % 3)

    return Pipelines(ensemble_size=12, pipeline_size=2)


def _sal():
    from repro.core.patterns import SimulationAnalysisLoop

    class CharCount(SimulationAnalysisLoop):
        def simulation_stage(self, iteration, instance):
            kernel = Kernel(name="misc.mkfile")
            kernel.arguments = ["--size=100", "--filename=output.txt"]
            return kernel

        def analysis_stage(self, iteration, instance):
            kernel = Kernel(name="misc.ccount")
            kernel.arguments = ["--inputfile=input.txt",
                                "--outputfile=ccount.txt"]
            kernel.link_input_data = [
                f"$SIMULATION_{iteration}_{instance}/output.txt > input.txt"
            ]
            return kernel

    return CharCount(iterations=2, simulation_instances=6,
                     analysis_instances=6)


def _bag():
    from repro.core.patterns import BagOfTasks

    class Bag(BagOfTasks):
        def task(self, instance):
            return _sleep_kernel(20 + 5 * (instance % 2), 1 + instance % 4)

    return Bag(size=24)


@pytest.mark.parametrize("make_pattern", [_eop, _sal, _bag])
def test_cached_binds_match_plain_binds_over_a_run(
    monkeypatch, sim_handle_factory, bind_calls, make_pattern
):
    from repro.core.drivers.base import PatternDriver

    plain_of, signatures, pending = {}, set(), []
    bind, submit = PatternDriver._bind, PatternDriver.submit

    def checked_bind(self, kernel):
        signatures.add(kernel.signature())
        pending.append(_plain(self, kernel))
        return bind(self, kernel)

    def checked_submit(self, requests):
        pending.clear()
        units = submit(self, requests)
        for request, unit, plain in zip(requests, units, pending, strict=True):
            plain.tags.update(request.tags)
            plain.tags.setdefault("pattern", self.pattern.uid)
            plain_of[unit] = plain
        return units

    monkeypatch.setattr(PatternDriver, "_bind", checked_bind)
    monkeypatch.setattr(PatternDriver, "submit", checked_submit)
    handle = sim_handle_factory()
    pattern = make_pattern()
    handle.run(pattern)
    platform = handle.platform
    assert pattern.units
    assert set(plain_of) == set(pattern.units)
    for unit in pattern.units:
        plain = plain_of[unit]
        assert _view(unit.description, platform) == _view(plain, platform)
    # One cached bind per distinct signature, beside the plain ones,
    # and one shared description object per signature.
    assert len(bind_calls) == len(plain_of) + len(signatures)
    assert len(signatures) < len(pattern.units)
    store = handle.session.unit_store
    shared = {id(store.shared_description(u._i)) for u in pattern.units}
    assert len(shared) == len(signatures)


def test_bulk_eop_run_holds_one_description_and_plugin_per_kernel(
    sim_handle_factory,
):
    import gc

    from repro.core.kernel_registry import get_plugin_instance
    from repro.core.patterns import EnsembleOfPipelines

    class TwoKernels(EnsembleOfPipelines):
        def stage_1(self, instance):
            return _sleep_kernel(30)

        def stage_2(self, instance):
            return _sleep_kernel(10)

    handle = sim_handle_factory()
    pattern = TwoKernels(ensemble_size=40, pipeline_size=2)
    handle.run(pattern)
    store = handle.session.unit_store
    assert len(store) == len(pattern.units) == 80
    shared = {id(d): d for d in map(store.shared_description, range(len(store)))}
    assert len(shared) <= 2
    plugin = get_plugin_instance("misc.sleep")
    for description in shared.values():
        assert description.payload.__self__ is plugin
        assert description.duration_model.plugin is plugin
    gc.collect()
    assert sum(type(o) is type(plugin) for o in gc.get_objects()) == 1


# -- container fields created on first access --------------------------------


def _every_field(kernel):
    """Every field a kernel carries, its plugin by class."""
    return (
        type(kernel), kernel.name, type(kernel._plugin), kernel.arguments,
        kernel.cores, kernel.uses_mpi, kernel.link_input_data,
        kernel.copy_input_data, kernel.copy_output_data, kernel.environment,
        kernel.data_size, kernel.tags, dict(kernel.__dict__),
    )


class _NotedKernel(Kernel):
    def __init__(self, name, note="none"):
        super().__init__(name)
        self.note = note


class TestKernelContainers:
    def test_in_place_edits_of_untouched_containers_reach_bind(self):
        kernel = Kernel(name="misc.ccount")
        kernel.arguments.append("--inputfile=in.txt")
        kernel.arguments.extend(["--outputfile=out.txt"])
        kernel.link_input_data.append("$SHARED/data.txt > in.txt")
        kernel.copy_input_data.append("plain.txt")
        kernel.copy_output_data.append("out.txt > results/out.txt")
        kernel.environment.update({"A": "1"})
        kernel.tags["stage"] = 3
        description = kernel.bind("local.localhost",
                                  get_platform("local.localhost"))
        assert description.arguments == ["--inputfile=in.txt",
                                         "--outputfile=out.txt"]
        assert [(s.action, s.source, s.target)
                for s in description.input_staging] == [
            ("link", "$SHARED/data.txt", "in.txt"),
            ("copy", "plain.txt", "plain.txt"),
        ]
        assert [(s.source, s.target) for s in description.output_staging] == [
            ("out.txt", "results/out.txt"),
        ]
        assert description.environment["A"] == "1"
        assert description.tags == {"stage": 3}

    def test_a_read_container_is_kept(self):
        kernel = Kernel(name="misc.sleep")
        assert kernel.arguments is kernel.arguments
        assert kernel.tags is kernel.tags
        replacement = ["--duration=1"]
        kernel.arguments = replacement
        assert kernel.arguments is replacement

    def test_empty_and_untouched_containers_share_one_binding(
        self, driver, bind_calls
    ):
        from repro.core.drivers.base import SubmitRequest

        untouched = Kernel(name="test.cached")
        untouched.arguments = ["--seconds=1"]
        emptied = Kernel(name="test.cached")
        emptied.arguments = ["--seconds=1"]
        emptied.link_input_data = []
        emptied.copy_input_data = []
        emptied.environment = {}
        emptied.tags = {}
        read = Kernel(name="test.cached")
        read.arguments = ["--seconds=1"]
        assert read.copy_output_data == [] and read.environment == {}
        assert untouched.signature() == emptied.signature() == read.signature()
        units = driver.submit([
            SubmitRequest(kernel, tags={"instance": i})
            for i, kernel in enumerate((untouched, emptied, read))
        ])
        assert len(bind_calls) == 1
        store = driver.session.unit_store
        assert len({id(store.shared_description(u._i)) for u in units}) == 1
        assert [store.tags(u._i) for u in units] == [
            {"instance": i, "pattern": driver.pattern.uid} for i in range(3)
        ]

    def test_resolving_placeholders_creates_no_staging_list(self, driver):
        from repro.core.drivers.base import SubmitRequest

        kernel = Kernel(name="test.cached")
        kernel.arguments = ["--seconds=1"]
        driver.submit([SubmitRequest(kernel)])
        assert kernel._link_input_data is None
        assert kernel._copy_input_data is None

    def test_a_subclass_and_a_user_can_set_other_attributes(self):
        kernel = _NotedKernel(name="misc.sleep", note="hot")
        kernel.extra = [1, 2]
        assert (kernel.note, kernel.extra) == ("hot", [1, 2])
        plain = Kernel(name="misc.sleep")
        plain.owner = "me"
        assert plain.owner == "me"

    @pytest.mark.parametrize("touched", [False, True])
    def test_copy_and_pickle_keep_every_field(self, touched):
        import copy
        import pickle

        kernel = _NotedKernel(name="misc.ccount", note="kept")
        kernel.cores = 4
        kernel.uses_mpi = True
        kernel.data_size = 64
        if touched:
            kernel.arguments = ["--inputfile=a", "--outputfile=b"]
            kernel.link_input_data = ["x > a"]
            kernel.copy_input_data = ["y"]
            kernel.copy_output_data = ["b"]
            kernel.environment = {"E": "1"}
            kernel.tags = {"t": 1}
        signature = kernel.signature()
        for clone in (copy.copy(kernel), pickle.loads(pickle.dumps(kernel))):
            assert clone is not kernel
            assert clone.signature() == signature
            assert _every_field(clone) == _every_field(kernel)

    def test_a_kernel_leaves_two_tracked_objects(self):
        """Built the way ``perfbench/apps.py`` builds a sleep, a kernel
        leaves itself and its argument list for the collector, and no
        empty container."""
        import gc

        def sleep(seconds, cores=1):
            kernel = Kernel(name="misc.sleep")
            kernel.arguments = [f"--duration={seconds}"]
            kernel.cores = cores
            kernel.uses_mpi = cores > 1
            return kernel

        sleep(1)  # load the plugin and its instance first
        gc.collect()
        before = len(gc.get_objects())
        kernels = [sleep(i % 7, 1 + i % 3) for i in range(1000)]
        gc.collect()
        tracked = len(gc.get_objects()) - before - 1  # minus the list
        assert len(kernels) == 1000
        assert tracked <= 2 * 1000, tracked / 1000
