"""Tests for the aircraft electrical power network case study."""

import pytest

from repro.casestudies import epn
from repro.explore.engine import ContrArcExplorer, ExplorationStatus


class TestGenerators:
    def test_library_has_four_impls_per_type(self):
        lib = epn.build_library()
        for type_name in ("generator", "ac_bus", "ru", "dc_bus", "load"):
            assert len(lib.implementations_of(type_name)) == 4, type_name

    def test_template_shape_single_side(self):
        t = epn.build_template(2)
        # 2 per type x 5 types = 10 components.
        assert t.num_components == 10
        # gens->acs 4, acs->rus 4, rus->dcs 4, dcs->loads 4.
        assert t.num_edges == 16

    def test_template_shape_both_sides_and_apu(self):
        t = epn.build_template(2, 1, 1)
        assert t.num_components == 10 + 5 + 1
        apu_edges = [e for e in t.edges() if e[0] == "apu_1"]
        # APU connects to all AC buses (2 left + 1 right).
        assert len(apu_edges) == 3

    def test_loads_required(self):
        t = epn.build_template(1)
        assert t.component("load_L1").param("required") == 1
        assert t.component("gen_L1").param("required") == 0

    def test_invalid_left(self):
        with pytest.raises(ValueError):
            epn.build_template(0)

    def test_problem_builder(self):
        mt, spec = epn.build_problem(1, 1, 1)
        assert {s.name for s in spec.viewpoint_specs} == {"power", "timing"}
        power = spec.spec_for("power")
        assert power.viewpoint.path_specific
        assert power.viewpoint.attribute == "loss"

    def test_table2_axis(self):
        assert len(epn.TABLE2_TEMPLATES) == 10
        assert epn.TABLE2_TEMPLATES[0] == (1, 0, 0)
        assert epn.TABLE2_TEMPLATES[-1] == (2, 2, 1)


#: (cost, iterations, cuts) of complete ContrArc on each Table II
#: template the benchmark's epn-grid workload runs.
GRID_TRAJECTORIES = {
    (1, 0, 0): (25.0, 7, 6),
    (2, 0, 0): (30.0, 8, 224),
    (1, 1, 0): (50.0, 7, 12),
    (2, 1, 0): (55.0, 7, 231),
    (1, 1, 1): (50.0, 5, 24),
    (2, 1, 1): (55.0, 7, 300),
}


@pytest.mark.parametrize(
    "sizes", sorted(GRID_TRAJECTORIES), ids=lambda s: ",".join(map(str, s))
)
def test_grid_trajectory_is_pinned(sizes):
    """A solver speedup must do the same work: same cost, iterations, cuts."""
    result = ContrArcExplorer(*epn.build_problem(*sizes)).explore()
    stats = result.stats
    assert (result.cost, stats.num_iterations, stats.total_cuts) == (
        GRID_TRAJECTORIES[sizes]
    )


class TestExploration:
    def test_smallest_template_optimum(self):
        mt, spec = epn.build_problem(1, 0, 0)
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        assert result.status is ExplorationStatus.OPTIMAL
        arch = result.architecture
        # Every stage instantiated exactly once.
        types = sorted(
            impl.type_name for impl in arch.selected_impls.values()
        )
        assert types == ["ac_bus", "dc_bus", "generator", "load", "ru"]
        # Verify the route respects loss budget and deadline by hand.
        losses = sum(
            impl.attribute("loss")
            for impl in arch.selected_impls.values()
            if impl.has_attribute("loss")
        )
        assert losses <= epn.DEFAULT_LOSS_BUDGET + 1e-9
        latencies = sum(
            impl.attribute("latency")
            for impl in arch.selected_impls.values()
            if impl.has_attribute("latency")
        )
        assert latencies + 1.0 <= epn.DEFAULT_DEADLINE + 1e-9

    def test_loose_requirements_take_cheapest(self):
        mt, spec = epn.build_problem(1, 0, 0, deadline=100.0, loss_budget=10.0)
        result = ContrArcExplorer(mt, spec, max_iterations=50).explore()
        assert result.status is ExplorationStatus.OPTIMAL
        assert result.stats.num_iterations == 1
        # gen 10 + acb 3 + ru 4 + dcb 2 + load 1 = 20.
        assert result.cost == pytest.approx(20.0)

    def test_impossible_loss_budget_infeasible(self):
        mt, spec = epn.build_problem(1, 0, 0, loss_budget=0.01)
        result = ContrArcExplorer(mt, spec, max_iterations=400).explore()
        assert result.status is ExplorationStatus.INFEASIBLE

    def test_two_sides_cost_roughly_doubles(self):
        mt1, spec1 = epn.build_problem(1, 0, 0)
        r1 = ContrArcExplorer(mt1, spec1, max_iterations=100).explore()
        mt2, spec2 = epn.build_problem(1, 1, 0)
        r2 = ContrArcExplorer(mt2, spec2, max_iterations=200).explore()
        assert r2.status is ExplorationStatus.OPTIMAL
        assert r2.cost == pytest.approx(2 * r1.cost)

    def test_generator_capacity_covers_demand(self):
        mt, spec = epn.build_problem(1, 0, 0, load_demand=5.0)
        result = ContrArcExplorer(mt, spec, max_iterations=100).explore()
        assert result.status is ExplorationStatus.OPTIMAL
        gen = result.architecture.implementation_of("gen_L1")
        # Demand 5 + route losses must fit in the capacity.
        assert gen.attribute("capacity") >= 5.0
