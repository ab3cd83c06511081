"""Fixtures for exploration tests: a small, fully-understood problem.

Template: src -> {w1, w2} -> sink with two worker implementations.
Demand 3, deadline forces the fast worker, flow viewpoint is global,
timing is path-specific. The optimum is known in closed form.
"""

import pytest

from repro.arch.component import Component, ComponentType
from repro.arch.library import Library
from repro.arch.template import MappingTemplate, Template
from repro.contracts.viewpoints import FLOW, TIMING
from repro.solver import scipy_backend
from repro.spec.base import Specification
from repro.spec.flow import FlowSpec
from repro.spec.interconnection import InterconnectionSpec
from repro.spec.timing import TimingSpec

SRC_T = ComponentType("source")
WORK_T = ComponentType("worker", ("latency", "throughput"))
SINK_T = ComponentType("sink")


def build_library():
    lib = Library()
    lib.new("src_std", "source", cost=1.0)
    lib.new("sink_std", "sink", cost=1.0)
    lib.new("w_slow", "worker", cost=3.0, latency=9.0, throughput=5.0)
    lib.new("w_mid", "worker", cost=5.0, latency=6.0, throughput=6.0)
    lib.new("w_fast", "worker", cost=7.0, latency=2.0, throughput=9.0)
    return lib


def build_template(num_workers=2):
    t = Template("explore-mini")
    t.add_component(
        Component(
            "src",
            SRC_T,
            max_fan_out=1,
            generated_flow=3.0,
            output_jitter=0.5,
            params={"required": 1},
        )
    )
    workers = []
    for i in range(1, num_workers + 1):
        name = f"w{i}"
        t.add_component(
            Component(name, WORK_T, max_fan_in=1, max_fan_out=1,
                      input_jitter=1.0, output_jitter=0.5)
        )
        workers.append(name)
    t.add_component(
        Component(
            "sink",
            SINK_T,
            max_fan_in=1,
            consumed_flow=3.0,
            input_jitter=1.0,
            params={"required": 1},
        )
    )
    t.connect_all(["src"], workers)
    t.connect_all(workers, ["sink"])
    t.mark_source_type("source")
    t.mark_sink_type("sink")
    return t


def build_spec(deadline=7.0):
    return Specification(
        InterconnectionSpec(),
        [
            FlowSpec(FLOW, max_source_flow=50.0, max_loss=0.5, min_delivery=3.0),
            TimingSpec(
                TIMING, max_latency=deadline, source_jitter=1.0, sink_jitter=2.0
            ),
        ],
    )


@pytest.fixture
def problem():
    template = build_template()
    mt = MappingTemplate(template, build_library(), time_bound=100.0)
    return mt, build_spec()


@pytest.fixture
def loose_problem():
    """Deadline loose enough that the cheapest choice wins immediately."""
    template = build_template()
    mt = MappingTemplate(template, build_library(), time_bound=100.0)
    return mt, build_spec(deadline=30.0)


@pytest.fixture
def impossible_problem():
    """Deadline below the fastest implementation: no feasible design."""
    template = build_template()
    mt = MappingTemplate(template, build_library(), time_bound=100.0)
    return mt, build_spec(deadline=1.0)


class ScratchSession:
    """Stand-in for :class:`repro.solver.session.IncrementalSession`
    whose solver re-solves every candidate MILP from scratch.

    Patched over ``repro.explore.engine.IncrementalSession``, it gives
    the stateless reference route the persistent session is checked
    against. Its solves open no phase spans.
    """

    def __init__(self, model):
        self.model = model
        self.tracer = None

    def as_solver(self):
        return scipy_backend.solve
