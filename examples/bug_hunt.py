"""Bug hunt: why the AMD MP-relacq bug needed PTE (Sec. 1.1).

The paper's second motivating bug: an AMD Vulkan compiler weakened
atomics so the storage barrier lost its release/acquire semantics.
Stress tuning alone (SITE) never exposed it; the parallel testing
environment revealed it at ~10 violations/second.

This example reproduces that story on the simulated AMD device:

1. run the MP-relacq conformance test in tuned single-instance
   environments — the bug stays hidden;
2. run it in parallel testing environments — violations pour out;
3. show that the same contrast holds for the corresponding mutant,
   which is how MC Mutants would have told you *in advance* that the
   SITE environment couldn't be trusted.

Run:  python examples/bug_hunt.py
"""

from repro import (
    EnvironmentKind,
    Runner,
    build_suite,
    make_device,
    random_environments,
)


def best_run(runner, device, test, environments, seed):
    """The fastest-killing environment's run, from one grid."""
    runs = runner.run_matrix([device], [test], environments, seed=seed)
    return max(runs, key=lambda run: run.rate)


def main() -> None:
    suite = build_suite()
    pair = suite.find_by_alias("MP")
    conformance = pair.conformance
    mutant = pair.mutants[1]  # the drop-second-fence variant
    device = make_device("amd", buggy=True)
    runner = Runner()
    print(f"Hunting on {device.describe()}\n")
    print(conformance.pretty())

    site_envs = random_environments(EnvironmentKind.SITE, 30, seed=1)
    pte_envs = random_environments(EnvironmentKind.PTE, 30, seed=1)

    print("\n--- single-instance testing (SITE), 30 tuned environments ---")
    site_bug = best_run(runner, device, conformance, site_envs, seed=10)
    print(f"best bug-revealing run:   {site_bug.describe()}")
    site_mut = best_run(runner, device, mutant, site_envs, seed=11)
    print(f"best mutant-killing run:  {site_mut.describe()}")

    print("\n--- parallel testing (PTE), 30 tuned environments ---")
    pte_bug = best_run(runner, device, conformance, pte_envs, seed=10)
    print(f"best bug-revealing run:   {pte_bug.describe()}")
    pte_mut = best_run(runner, device, mutant, pte_envs, seed=11)
    print(f"best mutant-killing run:  {pte_mut.describe()}")

    print("\n--- the moral ---")
    if site_bug.rate > 0:
        speedup = pte_bug.rate / site_bug.rate
        print(
            f"PTE reveals the bug {speedup:,.0f}x faster than the best "
            f"SITE environment."
        )
    else:
        print(
            "SITE never revealed the bug at all; PTE reveals it at "
            f"{pte_bug.rate:,.1f} violations/second."
        )
    print(
        "The mutant's death rate told the same story before any bug "
        "existed:\n"
        f"  SITE mutant death rate: {site_mut.rate:,.1f}/s\n"
        f"  PTE mutant death rate:  {pte_mut.rate:,.1f}/s\n"
        "An environment that cannot kill the mutant cannot find the bug "
        "(Sec. 5.4)."
    )


if __name__ == "__main__":
    main()
