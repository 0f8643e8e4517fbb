"""Property-based tests (seeded random sweeps; no hypothesis dependency).

The container has no ``hypothesis``, so each property is checked over a
few hundred cases drawn from a seeded generator — deterministic, so a
failing case is reproducible from the printed parameters.
"""

import math

import numpy as np
import pytest

from repro.cluster.platforms import get_platform, list_platforms
from repro.core.strategy import WorkloadEstimate, estimate_ttc
from repro.eventsim import RandomStreams
from repro.pilot.retry import RetryPolicy


def random_policy(rng):
    return RetryPolicy(
        max_attempts=int(rng.integers(1, 12)),
        backoff_base=float(rng.uniform(0.0, 30.0)),
        backoff_factor=float(rng.uniform(1.0, 4.0)),
        backoff_cap=float(rng.uniform(0.0, 300.0)),
        jitter=float(rng.uniform(0.0, 1.0)),
    )


class TestRetryPolicyProperties:
    def test_backoff_monotone_nondecreasing(self):
        rng = np.random.default_rng(101)
        for case in range(300):
            policy = random_policy(rng)
            delays = [policy.delay(n) for n in range(1, policy.max_attempts + 1)]
            assert delays == sorted(delays), (case, policy, delays)

    def test_backoff_bounded_by_cap(self):
        rng = np.random.default_rng(102)
        for case in range(300):
            policy = random_policy(rng)
            for attempt in range(1, policy.max_attempts + 1):
                assert policy.delay(attempt) <= policy.backoff_cap, (
                    case, policy, attempt,
                )

    def test_jittered_delay_never_below_base_nor_above_cap(self):
        rng = np.random.default_rng(103)
        draw = RandomStreams(103).get("retry_backoff")
        for case in range(300):
            policy = random_policy(rng)
            attempt = int(rng.integers(1, policy.max_attempts + 1))
            base = policy.delay(attempt)
            value = policy.jittered_delay(attempt, draw)
            assert value >= base, (case, policy, attempt)
            assert value <= policy.backoff_cap or value == base == 0.0, (
                case, policy, attempt,
            )

    def test_attempts_never_exceed_max(self):
        """Drive the gate exactly as the runtime does: count consumed
        attempts, ask ``should_retry`` before every extra one."""
        rng = np.random.default_rng(104)
        for case in range(300):
            policy = random_policy(rng)
            attempts = 0
            while True:
                attempts += 1  # one execution attempt consumed
                failed = rng.random() < 0.8
                if not failed or not policy.should_retry(attempts):
                    break
            assert attempts <= policy.max_attempts, (case, policy, attempts)


class TestEstimateTTCProperties:
    def test_makespan_at_least_wave_bound(self):
        """Estimated execution can never beat the ideal wave bound:
        ceil(N / floor(C/c)) waves of one (speed-scaled) task time each."""
        rng = np.random.default_rng(201)
        platforms = list_platforms()
        for case in range(300):
            platform = get_platform(
                platforms[int(rng.integers(0, len(platforms)))]
            )
            workload = WorkloadEstimate(
                ntasks=int(rng.integers(1, 500)),
                task_seconds=float(rng.uniform(1.0, 1000.0)),
                cores_per_task=int(rng.integers(1, 8)),
                stages=int(rng.integers(1, 4)),
            )
            cores = int(
                rng.integers(workload.cores_per_task, platform.total_cores + 1)
            )
            estimate = estimate_ttc(workload, platform, cores)
            concurrent = max(cores // workload.cores_per_task, 1)
            waves = math.ceil(workload.ntasks / concurrent)
            bound = (
                workload.stages * waves
                * workload.task_seconds / platform.node.core_speed
            )
            assert estimate["execution"] >= bound - 1e-9, (
                case, platform.name, workload, cores,
            )
            assert estimate["ttc"] >= estimate["execution"], (case,)

    def test_execution_monotone_in_cores(self):
        """More cores never slows the modelled execution phase down."""
        rng = np.random.default_rng(202)
        platform = get_platform("xsede.comet")
        for case in range(200):
            workload = WorkloadEstimate(
                ntasks=int(rng.integers(1, 300)),
                task_seconds=float(rng.uniform(1.0, 500.0)),
                cores_per_task=int(rng.integers(1, 4)),
            )
            small = int(
                rng.integers(workload.cores_per_task, platform.total_cores)
            )
            large = int(rng.integers(small, platform.total_cores + 1))
            exec_small = estimate_ttc(workload, platform, small)["execution"]
            exec_large = estimate_ttc(workload, platform, large)["execution"]
            assert exec_large <= exec_small + 1e-9, (case, workload, small, large)

    def test_components_nonnegative_and_sum_to_ttc(self):
        rng = np.random.default_rng(203)
        platform = get_platform("xsede.stampede")
        for case in range(200):
            workload = WorkloadEstimate(
                ntasks=int(rng.integers(1, 200)),
                task_seconds=float(rng.uniform(0.0, 100.0)),
            )
            cores = int(rng.integers(1, platform.total_cores + 1))
            estimate = estimate_ttc(workload, platform, cores)
            parts = (
                estimate["execution"] + estimate["queue_wait"]
                + estimate["client_overhead"] + estimate["bootstrap"]
                + estimate["launch"]
            )
            assert all(
                v >= 0.0 for k, v in estimate.items()
            ), (case, estimate)
            assert estimate["ttc"] == pytest.approx(parts), (case, estimate)
