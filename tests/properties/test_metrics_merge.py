"""Merge algebra of the metrics registry (hypothesis).

The fleet merge folds its work units' registries (their volatile
sections and ``retry_requeues``) into the campaign's: ``absorb_dict``
must be associative and commutative, and absorbing any partition of
an observation stream must reproduce the unpartitioned registry.

The quantification mirrors production: every registry in a family
registers the *same* instrument schema (names and gauge policies --
the instrumentation code is identical in every shard) and differs
only in observed values.  Gauges with the ``last`` policy are
order-dependent by design and excluded; the deterministic core's
gauges use order-independent policies.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.obs.metrics import MetricsRegistry

counter_names = st.sampled_from(
    ("experiments", "outcome.SD", "outcome.BRK", "quarantined",
     "points.classes"))
gauge_names = st.sampled_from(("points", "units", "budget"))
policies = st.sampled_from(("sum", "min", "max"))


@st.composite
def registry_families(draw, count=3):
    """*count* registries sharing one instrument schema."""
    counter_schema = draw(st.lists(counter_names, unique=True,
                                   max_size=5))
    gauge_schema = draw(st.dictionaries(gauge_names, policies,
                                        max_size=3))
    members = []
    for __ in range(count):
        registry = MetricsRegistry()
        for name in counter_schema:
            registry.counter(name).inc(draw(st.integers(0, 10_000)))
        for name, policy in sorted(gauge_schema.items()):
            registry.gauge(name, merge=policy).set(
                draw(st.integers(-1_000, 1_000)))
        histogram = registry.histogram("crash_latency")
        for value in draw(st.lists(st.integers(0, 1 << 21),
                                   max_size=20)):
            histogram.observe(value)
        members.append(registry)
    return gauge_schema, members


def rebuild(gauge_schema, *dicts):
    """A fresh registry with the family's schema, absorbing *dicts*
    in order (the parent side of a shard merge)."""
    registry = MetricsRegistry()
    for name, policy in sorted(gauge_schema.items()):
        registry.gauge(name, merge=policy)
    registry.histogram("crash_latency")
    for payload in dicts:
        registry.absorb_dict(payload)
    return registry.as_dict(include_volatile=False)


@settings(deadline=None, max_examples=60)
@given(family=registry_families(count=2))
def test_merge_is_commutative(family):
    schema, (a, b) = family
    ab = rebuild(schema, a.as_dict(), b.as_dict())
    ba = rebuild(schema, b.as_dict(), a.as_dict())
    assert ab == ba


@settings(deadline=None, max_examples=60)
@given(family=registry_families(count=3))
def test_merge_is_associative(family):
    schema, (a, b, c) = family
    left = rebuild(schema, a.as_dict(), b.as_dict(), c.as_dict())
    bc = rebuild(schema, b.as_dict(), c.as_dict())
    right = rebuild(schema, a.as_dict(), bc)
    assert left == right


@settings(deadline=None, max_examples=60)
@given(family=registry_families(count=1))
def test_empty_registry_is_the_identity(family):
    schema, (a,) = family
    expected = rebuild(schema, a.as_dict())
    with_empty = rebuild(schema, a.as_dict(),
                         MetricsRegistry().as_dict())
    assert with_empty == expected


@settings(deadline=None, max_examples=60)
@given(values=st.lists(st.integers(0, 1 << 21), max_size=60),
       cut=st.integers(0, 60))
def test_sharded_histograms_reproduce_the_serial_registry(values,
                                                          cut):
    cut = min(cut, len(values))
    serial = MetricsRegistry()
    serial.histogram("crash_latency")
    for value in values:
        serial.histogram("crash_latency").observe(value)

    parent = MetricsRegistry()
    parent.histogram("crash_latency")
    for shard_values in (values[:cut], values[cut:]):
        shard = MetricsRegistry()
        for value in shard_values:
            shard.histogram("crash_latency").observe(value)
        parent.absorb_dict(shard.as_dict())
    assert (parent.as_dict(include_volatile=False)
            == serial.as_dict(include_volatile=False))
