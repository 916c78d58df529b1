"""Property test: the compiled per-daemon dispatcher is observationally
equivalent to the linear scan it replaced.

The reference implementation below reproduces the pre-compilation
behaviour exactly: probe each of the daemon's specs in
longest-template-first order (stable among equal lengths) and return the
first ``spec.parse`` hit.  The dispatcher folds those same patterns into
bucketed alternations; these tests pin the two to identical answers on

* every catalog template rendered with representative attributes,
* perturbations of real bodies (truncations, suffixes, flipped bytes),
* arbitrary chatter that should match nothing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.catalogs import get_catalog

from tests.logs.test_catalog import sample_attrs_for

CRAY = get_catalog("cray-xc")
EVENTS = CRAY.events
DAEMONS = sorted(CRAY.dispatchers)


def linear_scan(daemon, body):
    """The old matcher: longest-template-first probe, first hit wins."""
    specs = sorted(CRAY.events_for_daemon(daemon),
                   key=lambda s: -len(s.template))
    for spec in specs:
        attrs = spec.parse(body)
        if attrs is not None:
            return spec.key, attrs
    return None


def dispatch(daemon, body):
    hit = CRAY.dispatchers[daemon].match(body)
    if hit is None:
        return None
    spec, attrs = hit
    return spec.key, attrs


def assert_equivalent(daemon, body):
    assert dispatch(daemon, body) == linear_scan(daemon, body), (
        f"dispatcher disagrees with linear scan on {daemon!r}: {body!r}"
    )


@pytest.mark.parametrize("key", sorted(EVENTS))
def test_every_template_round_trips_identically(key):
    """Rendered catalog bodies: same winning spec, same attributes."""
    spec = EVENTS[key]
    body = spec.format(sample_attrs_for(key))
    result = dispatch(spec.daemon, body)
    assert result is not None
    assert result == linear_scan(spec.daemon, body)


@pytest.mark.parametrize("daemon", DAEMONS)
def test_tie_break_matches_linear_scan_order(daemon):
    """When a body matches several specs, both pick the same winner --
    the longest-template one, registration order among equals."""
    for spec in CRAY.events_for_daemon(daemon):
        body = spec.format(sample_attrs_for(spec.key))
        reference = linear_scan(daemon, body)
        assert reference is not None
        assert dispatch(daemon, body) == reference


_real_bodies = st.sampled_from(
    [
        (spec.daemon, spec.format(sample_attrs_for(key)))
        for key, spec in sorted(EVENTS.items())
    ]
)


@given(case=_real_bodies, cut=st.integers(min_value=0, max_value=200))
@settings(max_examples=300, deadline=None)
def test_truncated_bodies_agree(case, cut):
    daemon, body = case
    assert_equivalent(daemon, body[:cut])


@given(case=_real_bodies, suffix=st.text(max_size=20))
@settings(max_examples=300, deadline=None)
def test_suffixed_bodies_agree(case, suffix):
    daemon, body = case
    assert_equivalent(daemon, body + suffix)


@given(
    case=_real_bodies,
    pos=st.integers(min_value=0, max_value=200),
    char=st.characters(codec="ascii"),
)
@settings(max_examples=300, deadline=None)
def test_mutated_bodies_agree(case, pos, char):
    """Flipping one character (including inside the literal-prefix
    region the bucket keys on) never desynchronises the two matchers."""
    daemon, body = case
    if not body:
        return
    pos %= len(body)
    assert_equivalent(daemon, body[:pos] + char + body[pos + 1:])


@given(daemon=st.sampled_from(DAEMONS), body=st.text(max_size=120))
@settings(max_examples=300, deadline=None)
def test_arbitrary_chatter_agrees(daemon, body):
    assert_equivalent(daemon, body)
