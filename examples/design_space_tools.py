#!/usr/bin/env python
"""Design-space tooling tour: top-k enumeration, audits, diagnosis, I/O.

Uses the EPN case study to demonstrate the utilities around the core
exploration loop:

1. enumerate the three cheapest *valid* power networks (explore(k=3));
2. audit the winner's margins against every system requirement;
3. save the design space to JSON and reload it;
4. deliberately over-demand the loads and ask the IIS diagnoser *why*
   no architecture exists.

Run:  python examples/design_space_tools.py
"""

from repro.arch.io import load_problem, save_problem
from repro.arch.template import MappingTemplate
from repro.casestudies import epn
from repro.explore import ContrArcExplorer, audit_architecture
from repro.solver.diagnostics import diagnose_infeasible_exploration


def main():
    print("=== 1. top-3 valid architectures (EPN 1,0,0) ===")
    mapping_template, specification = epn.build_problem(1, 0, 0)
    explorer = ContrArcExplorer(mapping_template, specification)
    top = explorer.explore(k=3).architectures
    for rank, architecture in enumerate(top, start=1):
        picks = ", ".join(
            f"{name}={impl.name}"
            for name, impl in sorted(architecture.selected_impls.items())
            if impl.has_attribute("loss") or impl.has_attribute("capacity")
        )
        print(f"  #{rank}: cost {architecture.cost:g} [{picks}]")

    print("\n=== 2. audit of the optimum ===")
    audit = audit_architecture(mapping_template, specification, top[0])
    print(audit.render())
    worst = audit.worst_slack()
    print(f"tightest requirement: {worst.viewpoint} @ {worst.scope} "
          f"(slack {worst.slack:g})")

    print("\n=== 3. JSON round-trip ===")
    save_problem(
        mapping_template.template, mapping_template.library, "epn_problem.json"
    )
    template, library = load_problem("epn_problem.json")
    rebuilt = MappingTemplate(template, library)
    print(
        f"saved + reloaded: {template.num_components} slots, "
        f"{len(library)} implementations, "
        f"{len(rebuilt.structural_vars())} decision variables"
    )

    print("\n=== 4. diagnosing an impossible design space ===")
    heavy_mt, heavy_spec = epn.build_problem(1, 0, 0, load_demand=50.0)
    print(diagnose_infeasible_exploration(heavy_mt, heavy_spec))


if __name__ == "__main__":
    main()
