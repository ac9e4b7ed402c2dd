"""Seeded read-order parity corpus, and the aliasing the shared fields add.

The typed accessors parse on access.  A ``Via`` or ``NameAddr`` is built
fresh, its ``params`` copied, from its header text's field tuple, which
the module-level caches share with every other message carrying that
text (and with the IDS's event builder); a ``CSeq`` is itself the cached
value.  None of that may be observable: touching accessors
in any order, any number of times, yields the same values; a message
mutated after some reads reserializes byte-identically to one mutated
after all or none; and nothing one holder does to a message or a value
reaches another message carrying the same text.  The corpus is
pseudo-random but seeded, so a failure reproduces exactly.
"""

import dataclasses
import random

import pytest

from repro.sip import NameAddr, SipResponse, Via, parse_message
from repro.sip.headers import name_addr_fields

SEED = 0x51B  # fixed: every run replays the same corpus
TRIALS = 120

METHODS = ["INVITE", "ACK", "BYE", "CANCEL", "OPTIONS", "REGISTER"]
STATUSES = [100, 180, 183, 200, 202, 302, 404, 486, 487, 500, 603]

#: Every public read accessor of the message layer.  ``repr`` the typed
#: values so dataclass equality (and None) compare structurally.
ACCESSORS = [
    ("call_id", lambda m: m.call_id),
    ("cseq", lambda m: repr(m.cseq)),
    ("from_", lambda m: repr(m.from_)),
    ("to", lambda m: repr(m.to)),
    ("contact", lambda m: repr(m.contact)),
    ("vias", lambda m: repr(list(m.vias))),
    ("top_via", lambda m: repr(m.top_via)),
    ("branch", lambda m: m.branch),
    ("get_all_via", lambda m: list(m.get_all("Via"))),
    ("get_from", lambda m: m.get("from")),
    ("get_subject", lambda m: m.get("Subject")),
    ("get_x_custom", lambda m: m.get("X-Custom")),
    ("start_line", lambda m: m.start_line()),
    ("headers", lambda m: list(m.headers)),
    ("body", lambda m: m.body),
]


def random_wire_message(rng):
    """One random but valid serialized SIP message, with case/compact
    jitter so the canonicalization paths are exercised too."""
    n = rng.randrange(1_000_000)
    call_id = f"parity-{n}@corpus.example.com"
    branch = f"z9hG4bKpar{n}"

    def jitter(name):
        choice = rng.randrange(3)
        if choice == 0:
            return name.lower()
        if choice == 1:
            return name.upper()
        return name

    lines = []
    if rng.random() < 0.5:
        method = rng.choice(METHODS)
        lines.append(f"{method} sip:user{n}@b.example.com SIP/2.0")
    else:
        status = rng.choice(STATUSES)
        lines.append(f"SIP/2.0 {status} Reason{n}")
    via_count = rng.randrange(1, 4)
    for hop in range(via_count):
        name = rng.choice(["Via", "v", "VIA", "via"])
        lines.append(f"{name}: SIP/2.0/UDP 10.0.{hop}.{n % 250}:5060"
                     f";branch={branch}h{hop}")
    from_name = rng.choice(["From", "f", "FROM"])
    display = f'"Alice {n}" ' if rng.random() < 0.3 else ""
    lines.append(f"{from_name}: {display}<sip:alice{n}@a.example.com>"
                 f";tag=ft{n}")
    to_name = rng.choice(["To", "t"])
    to_tag = f";tag=tt{n}" if rng.random() < 0.5 else ""
    lines.append(f"{to_name}: <sip:bob{n}@b.example.com>{to_tag}")
    lines.append(f"{rng.choice(['Call-ID', 'i'])}: {call_id}")
    lines.append(f"CSeq: {rng.randrange(1, 9999)} {rng.choice(METHODS)}")
    if rng.random() < 0.6:
        lines.append(f"{rng.choice(['Contact', 'm'])}: "
                     f"<sip:alice{n}@10.0.0.{n % 250}:5060>")
    if rng.random() < 0.4:
        lines.append(f"{jitter('Subject')}: corpus case {n}")
    if rng.random() < 0.4:
        lines.append(f"X-Custom: value-{n}")
    body = f"payload-{n}\r\n" if rng.random() < 0.3 else ""
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n" + body).encode()


def read_all(message, order, rng):
    """Touch every accessor in ``order``; some twice (memo consistency)."""
    values = {}
    for name, accessor in order:
        values[name] = accessor(message)
        if rng.random() < 0.3:
            again = accessor(message)
            assert again == values[name], f"unstable accessor {name}"
    return values


def test_lazy_and_eager_reads_agree_over_seeded_corpus():
    rng = random.Random(SEED)
    for _ in range(TRIALS):
        wire = random_wire_message(rng)
        eager = parse_message(wire)
        eager_values = read_all(eager, ACCESSORS, rng)

        lazy = parse_message(wire)
        order = list(ACCESSORS)
        rng.shuffle(order)
        lazy_values = read_all(lazy, order, rng)

        assert lazy_values == eager_values


def apply_random_mutations(message, rng):
    """A deterministic-per-rng sequence of header mutations."""
    for _ in range(rng.randrange(1, 5)):
        op = rng.randrange(4)
        if op == 0:
            name = rng.choice(["Subject", "X-Custom", "To"])
            value = (f"<sip:mut{rng.randrange(1000)}@m.example.com>;tag=mt"
                     if name == "To" else f"mutated-{rng.randrange(1000)}")
            message.set(name, value)
        elif op == 1:
            message.add("Via", f"SIP/2.0/UDP 10.9.9.9:5060"
                               f";branch=z9hG4bKmut{rng.randrange(1000)}")
        elif op == 2:
            message.prepend("Via", f"SIP/2.0/UDP 10.8.8.8:5060"
                                   f";branch=z9hG4bKpre{rng.randrange(1000)}")
        else:
            message.remove_first(rng.choice(["Subject", "X-Custom",
                                             "Contact"]))


def test_mutation_then_reserialize_is_byte_identical():
    """Whether reads happened lazily, eagerly, or not at all before the
    mutations, the reserialized bytes must be identical."""
    rng = random.Random(SEED + 1)
    for _ in range(TRIALS):
        wire = random_wire_message(rng)
        mutation_seed = rng.randrange(2 ** 31)

        untouched = parse_message(wire)
        apply_random_mutations(untouched, random.Random(mutation_seed))

        eager = parse_message(wire)
        read_all(eager, ACCESSORS, rng)
        apply_random_mutations(eager, random.Random(mutation_seed))

        lazy = parse_message(wire)
        order = list(ACCESSORS)
        rng.shuffle(order)
        read_all(lazy, order[:rng.randrange(1, len(order))], rng)
        apply_random_mutations(lazy, random.Random(mutation_seed))

        assert untouched.serialize() == eager.serialize() == lazy.serialize()
        # Post-mutation reads agree too (caches were invalidated, not stale).
        assert read_all(eager, ACCESSORS, rng) == \
            read_all(lazy, ACCESSORS, rng)


def test_roundtrip_without_mutation_is_byte_identical():
    """Parse → read everything → serialize preserves the wire image for
    messages our serializer itself produced (canonical form)."""
    rng = random.Random(SEED + 2)
    for _ in range(TRIALS):
        response = SipResponse(rng.choice(STATUSES))
        response.set("Via", f"SIP/2.0/UDP 10.0.0.1:5060"
                            f";branch=z9hG4bKrt{rng.randrange(10 ** 6)}")
        response.set("From", f"<sip:a{rng.randrange(10 ** 6)}"
                             f"@a.example.com>;tag=f")
        response.set("To", "<sip:b@b.example.com>;tag=t")
        response.set("Call-ID", f"rt-{rng.randrange(10 ** 6)}@x")
        response.set("CSeq", "1 INVITE")
        wire = response.serialize()
        reparsed = parse_message(wire)
        read_all(reparsed, ACCESSORS, rng)
        assert reparsed.serialize() == wire


# ---- aliasing: the cached fields are shared between messages --------------

SHARED_VIA = "SIP/2.0/UDP 10.0.0.7:5060;branch=z9hG4bKalias"
SHARED_FROM = '"Alice" <sip:alice@a.example.com>;tag=shared'


def _carrying_shared_text(call_id):
    return parse_message(
        f"INVITE sip:bob@b.example.com SIP/2.0\r\n"
        f"Via: {SHARED_VIA}\r\nFrom: {SHARED_FROM}\r\n"
        f"To: <sip:bob@b.example.com>\r\nCall-ID: {call_id}\r\n"
        f"CSeq: 1 INVITE\r\n\r\n".encode())


def test_mutating_one_message_leaves_its_text_twin_unchanged():
    first, second = _carrying_shared_text("a@x"), _carrying_shared_text("b@x")
    assert first.from_ == second.from_ and first.top_via == second.top_via
    before = (repr(second.from_), repr(second.vias), second.serialize())

    first.set("From", "<sip:mallory@m.example.com>;tag=other")
    first.prepend("Via", "SIP/2.0/UDP 10.9.9.9:5060;branch=z9hG4bKpushed")
    assert first.from_.tag == "other"
    assert [via.host for via in first.vias] == ["10.9.9.9", "10.0.0.7"]

    assert (repr(second.from_), repr(second.vias),
            second.serialize()) == before
    assert _carrying_shared_text("c@x").from_.tag == "shared"


@pytest.mark.parametrize("value", [Via.parse(SHARED_VIA),
                                   NameAddr.parse(SHARED_FROM)],
                         ids=["Via", "NameAddr"])
def test_shared_values_reject_assignment(value):
    for name in ("params", "host", "uri", "display_name"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, "x")
    with pytest.raises(TypeError):
        value.params["received"] = "6.6.6.6"
    with pytest.raises(TypeError):
        del value.params[next(iter(value.params))]


def test_a_constructor_copies_the_params_it_is_given():
    params = {"branch": "z9hG4bKown"}
    via = Via("10.0.0.1", 5060, params=params)
    params["branch"] = "z9hG4bKchanged"
    assert via.branch == "z9hG4bKown"


def test_with_tag_returns_a_new_value_and_leaves_the_cached_one_intact():
    cached = NameAddr.parse("<sip:bob@b.example.com>")
    tagged = cached.with_tag("fresh")
    assert tagged.tag == "fresh" and tagged is not cached
    assert cached.tag is None and "tag" not in cached.params
    assert NameAddr.parse("<sip:bob@b.example.com>") == cached
    assert name_addr_fields("<sip:bob@b.example.com>")[3] is None
    assert str(tagged) == "<sip:bob@b.example.com>;tag=fresh"
