#!/usr/bin/env python3
"""Case study D (Sec. VI-D) as automated design-space exploration.

Builds the sweep as a declarative ``StudySpec`` — the (UAV x compute x
algorithm) cross product, filtered and ranked as data — runs it
through ``run_study``, and shows the spec surviving a JSON round trip
bit-exactly.  The Pareto frontier and constrained selection then reuse
``dse.explore``, which compiles to the *same* plan.

Run:  python examples/full_system_dse.py
"""

from repro.dse import DesignSpace, SelectionCriteria, explore, pareto_front, select_best
from repro.dse.explorer import results_table
from repro.study import DesignSpec, FilterClause, RankClause, StudySpec, run_study


def main() -> None:
    space = DesignSpace(
        uav_names=("dji-spark", "asctec-pelican", "nano-uav"),
        compute_names=("intel-ncs", "jetson-tx2", "raspi4", "pulp-gap8"),
        algorithm_names=("dronet", "trailnet", "cad2rl", "vgg16"),
    )

    # The whole exploration as one serializable request.
    spec = StudySpec(
        design=DesignSpec.presets(
            space.uav_names, space.compute_names, space.algorithm_names
        ),
        filters=(FilterClause("total_mass_g", "<=", 2500.0),),
        rank=RankClause(by="safe_velocity", descending=True, top_k=20),
    )
    print(f"exploring {len(space)} design points as a StudySpec...\n")
    result = run_study(spec)
    print(result.describe())
    print()
    print(result.table())

    # The request is data: it round-trips through JSON bit-exactly.
    replayed = run_study(StudySpec.from_json(spec.to_json()))
    assert replayed.equals(result)
    print("\nspec -> JSON -> spec replay: identical result "
          f"({len(spec.to_json())} bytes of JSON)\n")

    # The legacy surface compiles to the same plan.
    results = explore(space)
    print(results_table(results[:10]))
    print(f"... ({len(results)} total)\n")

    front = pareto_front(results)
    print("Pareto frontier (maximize velocity, minimize TDP):")
    for entry in front:
        print(
            f"  {entry.label:<44s} v={entry.safe_velocity:5.2f} m/s  "
            f"TDP={entry.compute_tdp_w:6.2f} W"
        )

    criteria = SelectionCriteria(
        max_total_mass_g=600.0, max_compute_tdp_w=10.0
    )
    best = select_best(results, criteria)
    print(
        f"\nBest design under (mass <= 600 g, TDP <= 10 W): {best.label} "
        f"at {best.safe_velocity:.2f} m/s ({best.bound.value}-bound)"
    )


if __name__ == "__main__":
    main()
