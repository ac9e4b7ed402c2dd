#!/usr/bin/env python3
"""Quickstart: one call, one attack, one alert.

Builds the paper's Figure-7 testbed (two enterprise networks over a lossy
Internet cloud), deploys vids inline at network B's perimeter, places a
call, and launches a spoofed-BYE teardown attack against it.  vids catches
the attack cross-protocol: media arriving after the RTP machine closed.

Run:  python examples/quickstart.py
"""

from repro.attacks import ByeTeardownAttack
from repro.telephony import TestbedParams, build_testbed
from repro.vids import Vids


def main() -> None:
    # 1. The simulated enterprise testbed (Figure 7).
    testbed = build_testbed(TestbedParams(phones_per_network=3, seed=42))

    # 2. vids, deployed as the inline device between router B and hub B.
    vids = Vids(sim=testbed.sim)
    testbed.attach_processor(vids)

    # 3. Phones register with their domain proxies.
    testbed.register_all()
    testbed.sim.run(until=2.0)

    # 4. Alice (a1) calls Bob (b1) for 60 seconds.
    caller = testbed.phone("a1")
    call = caller.place_call("sip:b1@b.example.com", duration=60.0)

    # 5. Ten seconds in, a third party forges a BYE that claims to come
    #    from Alice, tearing Bob's side down while Alice keeps talking.
    attack = ByeTeardownAttack(start_time=testbed.sim.now + 10.0,
                               spoof="peer")
    attack.install(testbed)

    # 6. Run the world.
    testbed.network.run(until=120.0)

    print(f"call state at caller: {call.state}"
          f" (setup delay {call.setup_delay * 1000:.0f} ms)")
    print(f"attack launched: {attack.events}")
    print(f"vids processed {vids.metrics.packets_processed} packets "
          f"({vids.metrics.sip_messages} SIP, "
          f"{vids.metrics.rtp_packets} RTP)")
    print("alerts:")
    for alert in vids.alerts:
        print(f"  {alert}")
    assert vids.alerts, "expected the forged BYE to be detected"


if __name__ == "__main__":
    main()
