"""Cross-cutting integration tests.

These exercise full pipelines — not single modules — and pin down
engine-level invariants: determinism, oracle/closed-form agreement on
every rejected candidate, serialization transparency, and agreement
between all exploration strategies on final costs.
"""

import pytest

from repro.arch.io import problem_from_dict, problem_to_dict
from repro.arch.template import MappingTemplate
from repro.casestudies import epn, rpl
from repro.explore import ContrArcExplorer, audit_architecture
from repro.explore.baseline import MonolithicExplorer, lazy_nogood_explorer
from repro.explore.engine import ExplorationStatus


class TestDeterminism:
    def test_rpl_exploration_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            mt, spec = rpl.build_problem(1)
            result = ContrArcExplorer(mt, spec, max_iterations=200).explore()
            outcomes.append(
                (
                    result.status,
                    round(result.cost, 9),
                    result.stats.num_iterations,
                    tuple(
                        sorted(
                            (k, v.name)
                            for k, v in result.architecture.selected_impls.items()
                        )
                    ),
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_epn_exploration_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            mt, spec = epn.build_problem(1, 1, 0)
            result = ContrArcExplorer(mt, spec, max_iterations=200).explore()
            outcomes.append((round(result.cost, 9), result.stats.num_iterations))
        assert outcomes[0] == outcomes[1]


class TestStrategyAgreement:
    def test_all_strategies_same_cost_on_rpl(self):
        costs = {}
        mt, spec = rpl.build_problem(1)
        costs["contrarc"] = (
            ContrArcExplorer(mt, spec, max_iterations=300).explore().cost
        )
        mt, spec = rpl.build_problem(1)
        costs["monolithic"] = MonolithicExplorer(mt, spec).explore().cost
        mt, spec = rpl.build_problem(1)
        costs["lazy"] = (
            lazy_nogood_explorer(mt, spec, max_iterations=3000).explore().cost
        )
        mt, spec = rpl.build_problem(1)
        top = ContrArcExplorer(mt, spec, max_iterations=300).explore(k=3)
        costs["topk-first"] = top.architectures[0].cost
        assert len({round(c, 6) for c in costs.values()}) == 1, costs


class TestRejectionsAreGenuine:
    def test_every_rejected_candidate_violates_closed_form(self):
        """Replay the engine manually; each rejected candidate must
        exceed the deadline per the independent closed-form worst case."""
        from repro.arch.architecture import CandidateArchitecture
        from repro.explore.baseline import worst_case_path_latency
        from repro.explore.certificates import generate_cuts
        from repro.explore.encoding import build_candidate_milp
        from repro.explore.refinement_check import RefinementChecker
        from repro.graph.paths import all_source_sink_paths
        from repro.solver.encoder import FormulaEncoder
        from repro.solver.feasibility import get_backend

        mt, spec = rpl.build_problem(1)
        timing = spec.spec_for("timing")
        checker = RefinementChecker(mt, spec)
        solve = get_backend("scipy")
        model = build_candidate_milp(mt, spec)
        encoder = FormulaEncoder(model, prefix="cut")
        for _ in range(100):
            solved = solve(model)
            assert solved.is_optimal
            candidate = CandidateArchitecture.from_assignment(
                mt, solved.assignment
            )
            violation = checker.check(candidate)
            if violation is None:
                break
            if violation.viewpoint.name == "timing":
                graph = candidate.graph()
                sources = [n for n in graph.nodes() if graph.label(n) == "source"]
                sinks = [n for n in graph.nodes() if graph.label(n) == "sink"]
                worst = max(
                    worst_case_path_latency(mt, path, timing)
                    .substitute(candidate.attribute_assignment())
                    .constant
                    for path in all_source_sink_paths(graph, sources, sinks)
                )
                assert worst > timing.max_latency, (
                    "engine rejected a candidate the closed form accepts"
                )
            for cut in generate_cuts(mt, candidate, violation):
                encoder.enforce(cut.formula)
        else:
            pytest.fail("did not converge in 100 iterations")


class TestSerializationTransparency:
    def test_roundtripped_problem_explores_identically(self):
        mt, spec = epn.build_problem(1, 0, 0)
        original = ContrArcExplorer(mt, spec, max_iterations=200).explore()

        data = problem_to_dict(mt.template, mt.library)
        template, library = problem_from_dict(data)
        rebuilt_mt = MappingTemplate(
            template, library, flow_bound=mt.flow_bound, time_bound=mt.time_bound
        )
        rebuilt_spec = epn.build_specification(
            total_demand=epn.DEFAULT_LOAD_DEMAND
        )
        rebuilt = ContrArcExplorer(
            rebuilt_mt, rebuilt_spec, max_iterations=200
        ).explore()
        assert rebuilt.status is ExplorationStatus.OPTIMAL
        assert rebuilt.cost == pytest.approx(original.cost)


class TestAuditConsistency:
    def test_accepted_architectures_always_audit_clean(self):
        for builder in (
            lambda: rpl.build_problem(1),
            lambda: epn.build_problem(1, 0, 0),
            lambda: epn.build_problem(1, 1, 0),
        ):
            mt, spec = builder()
            result = ContrArcExplorer(mt, spec, max_iterations=300).explore()
            assert result.status is ExplorationStatus.OPTIMAL
            audit = audit_architecture(mt, spec, result.architecture)
            assert audit.holds, audit.render()
