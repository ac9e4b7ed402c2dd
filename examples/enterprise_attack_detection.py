#!/usr/bin/env python3
"""Enterprise attack-detection drill: the full Section-3 threat model.

Runs the Figure-7 enterprise scenario with a benign background call
workload and injects every attack from the paper's threat model, one
scenario per attack, then prints the detection scoreboard — the executable
version of the paper's Section 7.5 accuracy claim.

Run:  python examples/enterprise_attack_detection.py
"""

from repro.analysis import format_table
from repro.attacks import CATALOGUE
from repro.telephony import (
    ScenarioParams,
    TestbedParams,
    WorkloadParams,
    run_scenario,
)

WORKLOAD = WorkloadParams(mean_interarrival=25.0, mean_duration=400.0,
                          horizon=150.0)


def main() -> None:
    rows = []
    for label, (factory, expected) in CATALOGUE.items():
        attack = factory(40.0)
        result = run_scenario(ScenarioParams(
            testbed=TestbedParams(seed=11, phones_per_network=4),
            workload=WORKLOAD,
            with_vids=True,
            attacks=(attack,),
            drain_time=90.0,
        ))
        kinds = sorted({alert.attack_type.value
                        for alert in result.vids.alerts})
        rows.append((
            label,
            "yes" if attack.launched else "NO TARGET",
            expected.value if expected.value in kinds else "NOT DETECTED",
            ", ".join(kinds) or "none",
            f"{result.placed_calls} background calls",
        ))

    print(format_table(("attack", "launched", "detected as",
                        "alerts raised", "background"), rows))

    detected = sum(1 for _, launched, found, _, _ in rows
                   if launched == "yes" and found != "NOT DETECTED")
    print(f"\ndetection scoreboard: {detected}/{len(rows)} attack scenarios "
          f"raised their expected alert")


if __name__ == "__main__":
    main()
