"""Integration: registration hijacking — detection vs prevention.

Detection (vids): a REGISTER crossing the perimeter is flagged regardless
of whether the registrar accepts it.  Prevention (digest auth): the forged
binding is refused, so calls still reach the real phone.  Together they
demonstrate the paper's point that missing authentication enables the
threat model, and the IDS's value even when auth is absent.
"""


from repro.attacks import RegistrationHijackAttack
from repro.telephony import TestbedParams, build_testbed
from repro.vids import AttackType, Vids


def run_hijack(registrar_auth):
    testbed = build_testbed(TestbedParams(phones_per_network=2, seed=7,
                                          registrar_auth=registrar_auth))
    vids = Vids(sim=testbed.sim)
    testbed.attach_processor(vids)
    testbed.register_all()
    testbed.sim.run(until=3.0)
    attack = RegistrationHijackAttack(5.0, victim_aor="b1@b.example.com")
    attack.install(testbed)
    testbed.network.run(until=10.0)
    return testbed, vids, attack


def test_hijack_succeeds_without_auth_but_is_detected():
    testbed, vids, attack = run_hijack(registrar_auth=False)
    assert attack.launched
    assert attack.succeeded is True     # binding now points at the attacker
    binding = testbed.proxy_b.location.lookup("b1@b.example.com",
                                              testbed.sim.now)
    assert binding.host == "172.16.66.6"
    # vids saw the perimeter REGISTER and raised the alert.
    alerts = vids.alert_manager.by_type(AttackType.REGISTRATION_HIJACK)
    assert len(alerts) == 1
    assert alerts[0].detail["aor"] == "b1@b.example.com"
    assert alerts[0].detail["contact"] == "172.16.66.6"


def test_hijack_redirects_calls_without_auth():
    testbed, vids, attack = run_hijack(registrar_auth=False)
    # A call to the victim is now routed to the attacker's address: the
    # attacker host has no SIP stack listening, so the call simply fails —
    # the victim is unreachable (denial of service + interception point).
    call = testbed.phones_a[0].place_call("sip:b1@b.example.com", 10.0)
    testbed.network.run(until=60.0)
    assert call.state in ("failed", "cancelled")
    assert not testbed.phones_b[0].stats  # the real phone never rang


def test_auth_prevents_the_hijack():
    testbed, vids, attack = run_hijack(registrar_auth=True)
    assert attack.launched
    assert attack.succeeded is False
    binding = testbed.proxy_b.location.lookup("b1@b.example.com",
                                              testbed.sim.now)
    assert binding is not None
    assert binding.host == "10.2.0.11"  # the genuine phone
    # Detection still fires: the attempt crossed the perimeter.
    assert vids.alert_count(AttackType.REGISTRATION_HIJACK) == 1


def test_calls_work_normally_with_auth_enabled():
    testbed = build_testbed(TestbedParams(phones_per_network=2, seed=7,
                                          registrar_auth=True))
    vids = Vids(sim=testbed.sim)
    testbed.attach_processor(vids)
    testbed.register_all()
    testbed.sim.run(until=3.0)
    assert all(p.ua.registered for p in testbed.phones_a + testbed.phones_b)
    call = testbed.phones_a[0].place_call("sip:b1@b.example.com", 10.0)
    testbed.network.run(until=60.0)
    assert call.state == "terminated"
    assert vids.alerts == []


def test_legitimate_registrations_never_alert():
    testbed, vids, attack = run_hijack(registrar_auth=False)
    # The legitimate phones' REGISTERs happened inside the enterprise:
    # exactly one alert (the attacker's), nothing from the 4 real phones.
    assert vids.alert_count() == 1
