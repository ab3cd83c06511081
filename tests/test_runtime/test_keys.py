"""Cache-key stability tests.

The oracle cache is only sound if canonical hashing is (a) stable —
the same problem built twice, in the same or another process, yields
identical keys — and (b) sensitive — semantically different pins yield
different keys. Keys are also pinned to fixed digests, since every
on-disk oracle is addressed by them, and ``model_key``'s memo must give
the key a from-scratch rendering gives.
"""

import gc
import math
import os
import subprocess
import sys
import textwrap
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudies import epn, rpl
from repro.explore.encoding import build_candidate_milp
from repro.expr.constraints import BoolAtom, Implies
from repro.expr.terms import Domain, LinExpr, Var, binary, continuous
from repro.runtime import keys
from repro.runtime.keys import (
    canonical_formula,
    formula_key,
    model_key,
)
from repro.solver.model import Model


def _first_viewpoint_contracts(build_problem, *sizes):
    """(component contract, system contract) of the first path viewpoint."""
    from repro.graph.paths import all_source_sink_paths

    mapping_template, specification = build_problem(*sizes)
    spec = specification.path_specific_specs[0]
    template = mapping_template.template
    comp = spec.component_contract(mapping_template, template.components()[0])
    sources = [c.name for c in template.source_components()]
    sinks = [c.name for c in template.sink_components()]
    path = list(next(iter(all_source_sink_paths(template.graph(), sources, sinks))))
    system = spec.system_contract(mapping_template, path)
    return comp, system


class TestStability:
    def test_same_contract_built_twice_same_key(self):
        comp1, sys1 = _first_viewpoint_contracts(rpl.build_problem, 1, 0)
        comp2, sys2 = _first_viewpoint_contracts(rpl.build_problem, 1, 0)
        for first, second in ((comp1, comp2), (sys1, sys2)):
            assert formula_key(first.assumptions) == formula_key(second.assumptions)
            assert formula_key(first.guarantees) == formula_key(second.guarantees)

    def test_same_model_built_twice_same_key(self):
        m1 = build_candidate_milp(*epn.build_problem(1, 0, 0))
        m2 = build_candidate_milp(*epn.build_problem(1, 0, 0))
        assert model_key(m1) == model_key(m2)

    def test_formula_key_independent_of_var_identity(self):
        # Two distinct Var objects with the same (name, domain, bounds)
        # must hash identically — the uid never leaks into the key.
        f1 = continuous("x", 0, 10) + 2 <= 5
        f2 = continuous("x", 0, 10) + 2 <= 5
        assert formula_key(f1) == formula_key(f2)

    def test_key_stable_across_processes(self):
        program = textwrap.dedent(
            """
            from repro.casestudies import epn
            from repro.explore.encoding import build_candidate_milp
            from repro.runtime.keys import model_key
            print(model_key(build_candidate_milp(*epn.build_problem(1, 1, 0))))
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        remote = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        local = model_key(build_candidate_milp(*epn.build_problem(1, 1, 0)))
        assert remote == local


class TestSensitivity:
    def test_different_pins_different_keys(self):
        # Pinning the same attribute variable to different values must
        # produce different keys for the residual formula.
        x = continuous("x", 0, 10)
        y = continuous("y", 0, 10)
        base = x + y <= 5
        pinned_a = base.substitute({y: 3.0})
        pinned_b = base.substitute({y: 4.0})
        assert canonical_formula(pinned_a) != canonical_formula(pinned_b)
        assert formula_key(pinned_a) != formula_key(pinned_b)

    def test_different_sizes_different_model_keys(self):
        m1 = build_candidate_milp(*epn.build_problem(1, 0, 0))
        m2 = build_candidate_milp(*epn.build_problem(2, 0, 0))
        assert model_key(m1) != model_key(m2)

    def test_backend_is_part_of_key(self):
        model = build_candidate_milp(*rpl.build_problem(1, 0))
        assert model_key(model, "scipy") != model_key(model, "native")
        f = continuous("x", 0, 1) <= 0.5
        assert formula_key(f, "scipy") != formula_key(f, "native")

    def test_bounds_are_part_of_key(self):
        f1 = continuous("x", 0, 10) <= 5
        f2 = continuous("x", 0, 99) <= 5
        assert formula_key(f1) != formula_key(f2)

    def test_boolean_structure_distinguished(self):
        a, b = binary("a"), binary("b")
        from repro.expr.constraints import And, BoolAtom, Or

        conj = And(BoolAtom(a), BoolAtom(b))
        disj = Or(BoolAtom(a), BoolAtom(b))
        assert formula_key(conj) != formula_key(disj)


class TestPinnedDigests:
    """Digests of the canonical text as on-disk oracles hold them. A
    change here turns every existing oracle cold; make it on purpose."""

    def test_epn_candidate_milp(self):
        model = build_candidate_milp(*epn.build_problem(1, 1, 0))
        assert model_key(model) == (
            "24075e1ce65cf87268d32a46e3b441006b4f14f07ee1b2a680f048b814fe2d75"
        )

    def test_rpl_candidate_milp(self):
        model = build_candidate_milp(*rpl.build_problem(1, 1))
        assert model_key(model) == (
            "2c44d78e400c7a0c930501b669322fa0514890c7fbadc5f2e47afdc65808daff"
        )

    def test_formula(self):
        x = continuous("x", 0, 10)
        b = binary("b")
        formula = Implies(BoolAtom(b), 2 * x + 1 >= 8) & (x <= 7.5)
        assert formula_key(formula, backend="scipy", default_big_m=1000.0) == (
            "32715ce447d6dc4eaa4a66433d0c7891d885e20d620962b186b39dfe3e56c45b"
        )


_NAMES = st.text(alphabet="abmz_0", min_size=1, max_size=3)
_BOUNDS = st.sampled_from([(0.0, 1.0), (-5.0, 7.5), (0.0, math.inf), (-math.inf, 3.0)])
_COEFS = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False).filter(
    lambda c: abs(c) > 1e-6
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("var"), _NAMES, st.sampled_from(list(Domain)), _BOUNDS),
        st.tuples(
            st.sampled_from(["le", "ge", "eq", "objective"]),
            st.lists(st.tuples(st.integers(0, 20), _COEFS), max_size=4),
            _COEFS,
        ),
        st.tuples(st.just("key"), st.sampled_from(["", "scipy", "native"])),
    ),
    max_size=25,
)


class TestMemo:
    @settings(max_examples=60, deadline=None)
    @given(_OPS)
    def test_memo_key_equals_fresh_key(self, ops):
        """``stepped`` is keyed after every step, ``batched`` only on key
        steps (so its memo catches up over several appends); both must
        match a memo-less copy."""
        stepped, batched = Model("stepped"), Model("batched")
        pool = [Var("seed", Domain.CONTINUOUS, 0, 1)]
        for op in ops:
            if op[0] == "var":
                _, name, domain, (lb, ub) = op
                var = Var(name, domain, lb, ub)
                pool.append(var)
                for model in (stepped, batched):
                    model.add_variable(var)
            elif op[0] == "key":
                assert model_key(batched, op[1]) == model_key(batched.copy(), op[1])
            else:
                kind, terms, value = op
                expr = LinExpr({pool[i % len(pool)]: c for i, c in terms}, 0.0)
                for model in (stepped, batched):
                    if kind == "objective":
                        model.set_objective(expr, minimize=value > 0)
                    else:
                        getattr(model, f"add_{kind}")(expr, value)
            assert model_key(stepped) == model_key(stepped.copy())
        assert model_key(batched) == model_key(stepped)

    def test_appends_extend_the_memo(self):
        model = build_candidate_milp(*rpl.build_problem(1, 1))
        before = model_key(model)
        memo = keys._MEMO[model]
        rows = list(memo.rows)
        x = model.variables
        model.add_le(x[0] + x[1], 1.0)
        after = model_key(model)
        assert keys._MEMO[model] is memo
        assert memo.rows[:-1] == rows and len(memo.rows) == len(rows) + 1
        assert after != before and after == model_key(model.copy())

    def test_set_objective_renders_afresh(self):
        model = build_candidate_milp(*rpl.build_problem(1, 1))
        model_key(model)
        memo = keys._MEMO[model]
        model.set_objective(model.objective, minimize=not model.minimize)
        key = model_key(model)
        assert keys._MEMO[model] is not memo
        assert key == model_key(model.copy())

    def test_memo_dies_with_its_model(self):
        model = build_candidate_milp(*rpl.build_problem(1, 1))
        model_key(model)
        ref = weakref.ref(model)
        entries = len(keys._MEMO)
        del model
        gc.collect()
        assert ref() is None
        assert len(keys._MEMO) < entries
