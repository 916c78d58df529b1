"""Tests for the event catalogs: templates, patterns, dispatch tables.

The template/pattern inverse tests are parametrized over *every*
registered platform catalog (ISSUE 9): each dialect must satisfy the
same render->parse round-trip contract the Cray vocabulary always had.
"""

import pytest

from repro.logs.catalog import EVENTS, event_spec
from repro.logs.catalogs import catalog_names, get_catalog
from repro.logs.record import LogSource

# representative attribute values per required-attribute name
SAMPLE_ATTRS = {
    "node": "c0-0c1s4n2", "nodes": "c0-0c1s4n2,c0-0c1s4n3", "job": "123",
    "code": "1", "addr": "ffff880041", "bank": "4",
    "status": "dc0000400001009f", "cpu": "3", "kind": "corrected",
    "prog": "a.out", "pid": "4242", "test": "xtcheckhealth",
    "why": "failed health test", "apid": "991", "src": "c0-0c1s4",
    "detail": "corrected mem err", "sensor": "BC_T_NODE0_CPU",
    "value": "41.2", "min": "10.0", "max": "75.0", "fabric": "aries",
    "link": "r0:l12", "user": "u12", "app": "vasp", "cpus": "64",
    "used": "100", "limit": "50", "fan": "3", "rpm": "1200",
    "which": "bc-1", "func": "ldlm_bl", "ino": "8812",
    "target": "OST0007@o2ib", "dev": "sda", "sector": "1234", "xid": "62",
    "dimm": "DIMM#3", "reason": "Not responding", "file": "fs/dcache.c",
    "line": "357", "path": "/dvs/x", "ssid": "7",
}


# dialect-specific sample values (BG/Q link names carry no colon)
CATALOG_SAMPLE_OVERRIDES = {
    "bgq-ras": {"link": "R01-M0-L3", "node": "R01-M0-N04-J07",
                "nodes": "R01-M0-N04-J07,R01-M0-N05-J00"},
}


def sample_attrs_for(key, catalog="cray-xc"):
    events = get_catalog(catalog).events
    samples = {**SAMPLE_ATTRS, **CATALOG_SAMPLE_OVERRIDES.get(catalog, {})}
    spec = events[key]
    attrs = dict(spec.defaults)
    for name in spec.required:
        attrs.setdefault(name, samples.get(name, "x"))
    if key == "link_failover":
        attrs["status"] = "ok"
    return attrs


#: every (catalog, event key) pair across all registered dialects
ALL_CATALOG_EVENTS = [
    (name, key)
    for name in catalog_names()
    for key in sorted(get_catalog(name).events)
]


class TestRegistry:
    def test_catalog_is_large(self):
        assert len(EVENTS) >= 70

    def test_event_spec_lookup(self):
        assert event_spec("mce").key == "mce"

    def test_event_spec_unknown_suggests(self):
        with pytest.raises(KeyError, match="similar"):
            event_spec("mce_bogus")

    def test_events_for_daemon(self):
        cray = get_catalog("cray-xc")
        kernel = cray.events_for_daemon("kernel")
        assert len(kernel) >= 20
        assert all(e.daemon == "kernel" for e in kernel)
        assert cray.events_for_daemon("no_such_daemon") == []

    def test_sources_consistent_with_daemon(self):
        for spec in EVENTS.values():
            if spec.daemon in ("bc", "cc"):
                assert spec.source is LogSource.CONTROLLER
            if spec.daemon == "erd":
                assert spec.source is LogSource.ERD
            if spec.daemon == "kernel":
                assert spec.source is LogSource.CONSOLE


class TestTemplatePatternInverse:
    @pytest.mark.parametrize("catalog,key", ALL_CATALOG_EVENTS)
    def test_roundtrip(self, catalog, key):
        """format() then parse() recovers exactly the used attributes."""
        spec = get_catalog(catalog).events[key]
        attrs = sample_attrs_for(key, catalog)
        body = spec.format(attrs)
        recovered = spec.parse(body)
        assert recovered is not None, (
            f"{catalog}/{key}: pattern does not match template")
        for name, value in recovered.items():
            assert str(attrs[name]) == value

    @pytest.mark.parametrize("catalog,key", ALL_CATALOG_EVENTS)
    def test_no_cross_matching_within_daemon(self, catalog, key):
        """A rendered body matches no *other* spec of the same daemon whose
        attribute sets differ (dialect ambiguity would corrupt parsing)."""
        events = get_catalog(catalog).events
        spec = events[key]
        body = spec.format(sample_attrs_for(key, catalog))
        for other in events.values():
            if other.daemon != spec.daemon or other.key == key:
                continue
            hit = other.parse(body)
            if hit is not None:
                # only acceptable if both parses recover identical attrs
                assert hit == spec.parse(body), (
                    f"{catalog}/{key} body also matches {other.key} "
                    "with different attrs"
                )

    def test_missing_required_raises(self):
        with pytest.raises(KeyError, match="missing required"):
            EVENTS["mce"].format({})

    def test_defaults_fill_in(self):
        body = EVENTS["mce"].format({"bank": 4, "status": "abc123"})
        assert body.startswith("Machine Check Exception: 1 ")

    def test_parse_rejects_wrong_body(self):
        assert EVENTS["mce"].parse("this is not an mce") is None
