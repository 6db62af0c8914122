"""Quickstart: generate the suite, run a litmus test, find a bug.

Walks the core loop of MC Mutants end to end:

1. generate the verified suite of 20 conformance tests + 32 mutants
   (Table 2);
2. look at the CoRR test from Fig. 1a, its formal target behaviour,
   and the WGSL shader the paper's harness would dispatch;
3. run it operationally on a clean simulated device (no violations,
   ever) and on the Intel device carrying the historical CoRR bug
   (violations appear under stress);
4. kill CoRR's mutant and compute the reproducibility score of the run.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Runner,
    TestOracle,
    build_suite,
    generate_wgsl,
    make_device,
    render_table2,
    reproducibility_score,
    site_baseline,
)
from repro.gpu import Workload


def main() -> None:
    rng = np.random.default_rng(2023)

    # 1. The suite (machine-verified against the formal memory model).
    suite = build_suite()
    print(render_table2(suite))

    # 2. The CoRR test of Fig. 1a.
    pair = suite.find_by_alias("CoRR")
    corr = pair.conformance
    print("\n" + corr.pretty())
    print(
        "\nDisallowed behaviour: the first read sees the new value, "
        "the second the stale one."
    )
    print("\nWGSL shader (excerpt):")
    shader = generate_wgsl(corr)
    print("\n".join(shader.splitlines()[:8]) + "\n  ...")

    # 3. Operational runs: clean device vs the historical Intel bug.
    oracle = TestOracle(corr)
    stressed = Workload(
        instances_in_flight=50_000,
        mem_stress=0.9,
        pattern_affinity=0.9,
        location_spread=0.9,
    )
    for buggy in (False, True):
        device = make_device("intel", buggy=buggy)
        violations = sum(
            oracle.is_violation(device.run_instance(corr, stressed, rng))
            for _ in range(2_000)
        )
        print(
            f"\n{device.describe()}\n"
            f"  CoRR violations in 2000 stressed instances: {violations}"
        )

    # 4. Kill the mutant and quantify confidence.
    mutant = pair.mutants[0]
    runner = Runner()
    run = runner.run(make_device("intel"), mutant, site_baseline(), seed=0)
    print(f"\nMutant run: {run.describe()}")
    print(
        f"Reproducibility of this run: "
        f"{reproducibility_score(run.kills):.4f} "
        f"(1 - e^-kills; Sec. 4.2)"
    )


if __name__ == "__main__":
    main()
