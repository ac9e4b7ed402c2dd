import _paths  # noqa: F401 - import path side effect

import spans
from repro.efsm import ManualClock
from repro.vids.classifier import PacketClassifier


def hand_built_tree():
    """root 0..100 > a 10..60 > (b 20..30, b 35..50); root > c 70..90."""
    tracer = spans.Tracer()
    root = tracer.add_span("root", 0, 100)
    a = tracer.add_span("a", 10, 60, parent=root)
    tracer.add_span("b", 20, 30, parent=a)
    tracer.add_span("b", 35, 50, parent=a)
    tracer.add_span("c", 70, 90, parent=root)
    return tracer


def test_self_time_is_duration_minus_children():
    tracer = hand_built_tree()
    assert tracer.self_times() == [30, 25, 10, 15, 20]
    by_layer = tracer.by_layer()
    assert by_layer["root"] == (1, 100, 30)
    assert by_layer["a"] == (1, 50, 25)
    assert by_layer["b"] == (2, 25, 25)
    assert by_layer["c"] == (1, 20, 20)
    # The self times of all layers add up to the root span.
    assert sum(own for _, _, own in by_layer.values()) == 100


def test_wrap_nests_spans_under_the_caller():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: 7)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    assert outer() == 14
    assert list(tracer.parents) == [-1, 0, 0]
    assert [tracer.layer_names[i] for i in tracer.layers] == \
        ["outer", "inner", "inner"]
    own = tracer.self_times()
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(3)]
    assert own[0] == durations[0] - durations[1] - durations[2]


def test_wrap_closes_the_span_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    try:
        tracer.wrap("layer", boom)()
    except KeyError:
        pass
    assert tracer.ends[0] >= tracer.starts[0] > 0
    with tracer.span("after"):
        pass
    assert tracer.parents[1] == -1      # the stack was unwound


def test_shims_are_removed_again():
    classify, advance = PacketClassifier.classify, ManualClock.advance
    schedule = ManualClock.schedule
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert PacketClassifier.classify is not classify
        clock = ManualClock()
        fired = []
        clock.schedule(1.0, lambda: fired.append(1))
        clock.schedule(5.0, lambda: fired.append(2)).cancel()
        clock.advance(10.0)
    assert fired == [1]
    assert tracer.counts == {"timers_fired": 1}
    assert tracer.by_layer()["efsm.clock"][0] == 1
    assert PacketClassifier.classify is classify
    assert ManualClock.advance is advance
    assert ManualClock.schedule is schedule
