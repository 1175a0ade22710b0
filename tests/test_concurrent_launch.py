"""Unit tests for the concurrent-kernel launch layer (repro.sim.launch).

Covers the partitioned id spaces ``build_launches`` hands out, label
deduplication, the identity-preserving ``trace_for`` rebase, the GridView
facade the engine loops drain, the DispatchArbiter's two policies, and the
combined-liveness / shared-address-model constructors concurrent GPUs are
assembled from.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.config import TINY, default_config
from repro.sim.launch import (
    ARBITRATION_POLICIES,
    DispatchArbiter,
    GridView,
    KernelLaunch,
    LaunchSpec,
    build_launches,
    combined_liveness,
    shared_address_model,
)
from repro.workloads.generator import build_workload
from repro.workloads.suite import get_spec

CONFIG = default_config(TINY)


@pytest.fixture(scope="module")
def km():
    return build_workload(get_spec("KM"), CONFIG, TINY)


@pytest.fixture(scope="module")
def lb():
    return build_workload(get_spec("LB"), CONFIG, TINY)


def specs_for(*instances, **kwargs):
    return [LaunchSpec.from_workload(inst, stream=i, **kwargs)
            for i, inst in enumerate(instances)]


# ----------------------------------------------------------------------
# build_launches: id-space partitioning and labels
# ----------------------------------------------------------------------
class TestBuildLaunches:
    def test_empty_specs_rejected(self):
        with pytest.raises(ValueError):
            build_launches([])

    def test_single_launch_keeps_base_zero(self, km):
        (launch,) = build_launches(specs_for(km))
        assert (launch.cta_base, launch.warp_base, launch.index_base) \
            == (0, 0, 0)
        assert launch.grid_ctas == km.kernel.geometry.grid_ctas

    def test_bases_are_contiguous_blocks(self, km, lb):
        first, second = build_launches(specs_for(km, lb))
        assert first.cta_base == 0
        assert second.cta_base == first.grid_ctas
        assert second.warp_base == first.grid_ctas * first.warps_per_cta
        assert second.index_base == first.num_instructions

    def test_grids_enumerate_partitioned_cta_ids(self, km, lb):
        first, second = build_launches(specs_for(km, lb))
        assert list(first.grid) == list(range(first.grid_ctas))
        assert list(second.grid) == list(
            range(second.cta_base, second.cta_base + second.grid_ctas))

    def test_owns_cta_partitions_exactly(self, km, lb):
        first, second = build_launches(specs_for(km, lb))
        total = first.grid_ctas + second.grid_ctas
        for cta_id in range(total):
            owners = [l for l in (first, second) if l.owns_cta(cta_id)]
            assert len(owners) == 1
        assert not first.owns_cta(total)
        assert not second.owns_cta(-1)

    def test_default_labels_carry_stream_and_kernel(self, km, lb):
        first, second = build_launches(specs_for(km, lb))
        assert first.label == f"s0:{km.kernel.name}"
        assert second.label == f"s1:{lb.kernel.name}"

    def test_duplicate_labels_deduplicated(self, km):
        # Same kernel on the same stream id twice: identical default
        # labels must not collide in per-kernel attribution.
        specs = [LaunchSpec.from_workload(km), LaunchSpec.from_workload(km)]
        first, second = build_launches(specs)
        assert first.label != second.label
        assert second.label.endswith("#1")

    def test_explicit_label_respected(self, km):
        (launch,) = build_launches(
            [LaunchSpec.from_workload(km, label="hot-stream")])
        assert launch.label == "hot-stream"


# ----------------------------------------------------------------------
# KernelLaunch: CTA queue and trace rebase
# ----------------------------------------------------------------------
class TestKernelLaunch:
    def test_pop_cta_drains_in_order(self, km):
        (launch,) = build_launches(specs_for(km))
        popped = [launch.pop_cta() for __ in range(launch.grid_ctas)]
        assert popped == list(range(launch.grid_ctas))
        assert launch.pop_cta() is None
        assert launch.remaining == 0

    def test_base0_trace_identity_preserved(self, km):
        # The compiled backend interns traces by list identity; the base-0
        # launch must return the provider's memoized object as-is.
        (launch,) = build_launches(specs_for(km))
        assert launch.trace_for(0, 0) is km.trace_provider.trace_for(0, 0)

    def test_rebased_trace_offsets_every_index(self, km, lb):
        __, second = build_launches(specs_for(km, lb))
        raw = lb.trace_provider.trace_for(0, 0)
        rebased = second.trace_for(0, 0)
        assert list(rebased) == [i + second.index_base for i in raw]

    def test_rebased_trace_memoized(self, km, lb):
        __, second = build_launches(specs_for(km, lb))
        assert second.trace_for(0, 0) is second.trace_for(0, 0)


# ----------------------------------------------------------------------
# GridView
# ----------------------------------------------------------------------
class TestGridView:
    def _view(self, km, lb):
        launches = build_launches(specs_for(km, lb))
        return launches, GridView(launches)

    def test_len_sums_all_queues(self, km, lb):
        launches, view = self._view(km, lb)
        assert len(view) == sum(l.grid_ctas for l in launches)

    def test_truthiness_tracks_drain(self, km, lb):
        launches, view = self._view(km, lb)
        assert view
        for launch in launches:
            launch.grid.clear()
        assert not view
        assert len(view) == 0

    def test_popleft_services_index_order(self, km, lb):
        launches, view = self._view(km, lb)
        drained = [view.popleft() for __ in range(len(view))]
        # launch 0 drains fully before launch 1 is touched
        expected = [cta for launch in launches for cta in
                    range(launch.cta_base, launch.cta_base + launch.grid_ctas)]
        assert drained == expected

    def test_popleft_empty_raises(self, km, lb):
        launches, view = self._view(km, lb)
        for launch in launches:
            launch.grid.clear()
        with pytest.raises(IndexError):
            view.popleft()


# ----------------------------------------------------------------------
# DispatchArbiter
# ----------------------------------------------------------------------
def make_launch(index, stream=0, priority=0, ctas=4):
    """A minimal stand-in launch: the arbiter only reads index/stream/
    priority/grid, so a bare object with those attributes suffices."""
    class _L:
        pass
    launch = _L()
    launch.index = index
    launch.stream = stream
    launch.priority = priority
    launch.grid = deque(range(ctas))
    return launch


class TestDispatchArbiter:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="round_robin"):
            DispatchArbiter([make_launch(0)], policy="fifo")

    def test_policies_registry_matches_ctor(self):
        for policy in ARBITRATION_POLICIES:
            DispatchArbiter([make_launch(0)], policy=policy)

    def test_priority_order_highest_first(self):
        low = make_launch(0, priority=0)
        high = make_launch(1, priority=2)
        arb = DispatchArbiter([low, high], policy="priority")
        assert arb.dispatch_order() == [high, low]

    def test_priority_ties_break_by_stream_then_index(self):
        a = make_launch(1, stream=1)
        b = make_launch(0, stream=2)
        c = make_launch(2, stream=1)
        arb = DispatchArbiter([a, b, c], policy="priority")
        assert arb.dispatch_order() == [a, c, b]

    def test_priority_order_static_across_dispatches(self):
        low, high = make_launch(0), make_launch(1, priority=1)
        arb = DispatchArbiter([low, high], policy="priority")
        arb.note_dispatched(high)
        assert arb.dispatch_order() == [high, low]

    def test_round_robin_rotates_after_dispatch(self):
        a, b = make_launch(0), make_launch(1)
        arb = DispatchArbiter([a, b], policy="round_robin")
        assert arb.dispatch_order()[0] is a
        arb.note_dispatched(a)
        assert arb.dispatch_order()[0] is b
        arb.note_dispatched(b)
        assert arb.dispatch_order()[0] is a

    def test_next_fitting_skips_drained(self):
        a, b = make_launch(0), make_launch(1)
        a.grid.clear()
        arb = DispatchArbiter([a, b], policy="priority")
        assert arb.next_fitting(lambda l: True) is b

    def test_next_fitting_honors_fit_predicate(self):
        a, b = make_launch(0, priority=1), make_launch(1)
        arb = DispatchArbiter([a, b], policy="priority")
        assert arb.next_fitting(lambda l: l is b) is b
        assert arb.next_fitting(lambda l: False) is None


# ----------------------------------------------------------------------
# combined_liveness / shared_address_model
# ----------------------------------------------------------------------
class TestCombiners:
    def test_single_launch_liveness_passthrough(self, km):
        (launch,) = build_launches(specs_for(km))
        assert combined_liveness([launch]) is launch.liveness

    def test_combined_liveness_concatenates_vectors(self, km, lb):
        launches = build_launches(specs_for(km, lb))
        table = combined_liveness(launches)
        assert len(table.vectors) == sum(
            len(l.liveness.vectors) for l in launches)
        assert table.num_registers == max(
            l.liveness.num_registers for l in launches)

    def test_shared_address_model_returns_first(self, km, lb):
        first = specs_for(km)[0]
        # build_app-style sharing: every stream reuses the first model.
        partner = LaunchSpec(kernel=lb.kernel,
                             trace_provider=lb.trace_provider,
                             address_model=first.address_model)
        assert shared_address_model([first, partner]) \
            is first.address_model

    def test_shared_address_model_rejects_type_mismatch(self, km):
        spec = specs_for(km)[0]
        alien = LaunchSpec(kernel=km.kernel,
                           trace_provider=km.trace_provider,
                           address_model=object())
        with pytest.raises(ValueError, match="address-model type"):
            shared_address_model([spec, alien])
