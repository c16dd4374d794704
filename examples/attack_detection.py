#!/usr/bin/env python3
"""Security analysis: the §VII scenario corpus against every mechanism.

Prints the House-of-Spirit recipe of Fig. 1 step by step, runs it on an
unprotected heap (where it completes: ``malloc`` hands back the crafted
chunk) and on AOS (where ``bndclr`` stops the ``free`` of the crafted
pointer), then prints the complete scenario-vs-mechanism detection
matrix.

Run with::

    python examples/attack_detection.py
"""

from repro.adversary import build_scenario, execute_scenario, run_security_analysis


def house_of_spirit_walkthrough() -> None:
    print("=" * 72)
    print("House of Spirit (Fig. 1)")
    print("=" * 72)
    instance = build_scenario("house-of-spirit")
    for index, step in enumerate(instance.steps):
        args = (
            f"{name}={value:#x}" if isinstance(value, int) else f"{name}={value}"
            for name, value in vars(step).items()
            if value and name != "op"
        )
        print(f"  step {index}: {step.op:9s} " + " ".join(args))
    print()
    for mechanism in ("baseline", "aos"):
        outcome, detail = execute_scenario(instance, mechanism)
        print(f"  {mechanism:8s} {outcome.value:10s} {detail}")


def main() -> None:
    house_of_spirit_walkthrough()

    print()
    print("=" * 72)
    print("Full detection matrix (§VII)")
    print("=" * 72)
    print(run_security_analysis().format_grid())
    print()
    print("Notes:")
    print(" - rest misses the non-linear overflow (jumps over redzones, §I)")
    print(" - pa detects only pointer corruption, not OOB/UAF (§II-B)")
    print(" - aos misses ahc-zero-escape: a zeroed AHC skips bounds checks;")
    print("   pa+aos closes it with the on-load autm (§VII-C, Fig. 13)")
    print(" - mte's 4-bit tags fall to metadata-brute-force; 16-bit PACs do not")


if __name__ == "__main__":
    main()
