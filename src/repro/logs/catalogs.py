"""Named platform catalogs: pluggable event vocabularies.

The paper's methodology is platform-agnostic: it mines whatever
vocabulary the platform's daemons emit.  This module makes that explicit
by packaging one platform's entire event vocabulary -- specs, compiled
dispatchers, the daemon->source mapping, and a content fingerprint --
into a frozen :class:`PlatformCatalog`, behind a named registry:

* ``cray-xc`` -- the Cray XC dialect of Tables II--IV
  (:mod:`repro.logs.catalog`), the default everywhere;
* ``bgq-ras`` -- a Blue Gene/Q-style RAS dialect
  (:mod:`repro.logs.bgq`), following Sirbu & Babaoglu's holistic BG/Q
  study.

Both dialects share the outer line frame
``<stamp> <component> <daemon>: <body>`` (the store contract) but
disagree on everything inside it: daemon tags, message shapes, and the
attribute vocabulary.  Because the daemon tag sets are disjoint,
:func:`detect_platform` can sniff the dialect of an unlabelled log
directory from a handful of lines.

Builtin catalogs are imported lazily: this module never imports the
vocabulary modules at import time (they import *us* to register
themselves), so ``import repro.logs.catalogs`` is cycle-free and cheap.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.logs.record import LogSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.logs.catalog import DaemonDispatcher, EventSpec

__all__ = [
    "PlatformCatalog",
    "CATALOGS",
    "DEFAULT_PLATFORM",
    "compile_dispatchers",
    "register_catalog",
    "get_catalog",
    "catalog_names",
    "resolve_catalog",
    "detect_platform",
]

#: the dialect assumed when nothing chooses one (the original hardwired
#: vocabulary, so behaviour without a platform knob is byte-identical)
DEFAULT_PLATFORM = "cray-xc"

#: builtin catalog name -> module that registers it on import
_BUILTIN_MODULES: dict[str, str] = {
    "cray-xc": "repro.logs.catalog",
    "bgq-ras": "repro.logs.bgq",
}


@dataclass(frozen=True)
class PlatformCatalog:
    """One platform's complete event vocabulary, frozen and fingerprinted."""

    #: registry name (``cray-xc``, ``bgq-ras``, ...)
    name: str
    #: one-line human description shown by ``repro catalogs``
    description: str
    #: event key -> spec (the dialect's whole vocabulary)
    events: Mapping[str, "EventSpec"]
    #: daemon tag -> compiled single-pass dispatcher
    dispatchers: Mapping[str, "DaemonDispatcher"]
    #: daemon tag -> log source for chatter (un-catalogued) lines
    daemon_sources: Mapping[str, LogSource]
    #: source for lines from daemons absent from :attr:`daemon_sources`
    default_source: LogSource = LogSource.SCHEDULER

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the vocabulary (cache invalidation key).

        Any change to the dialect -- an event added, a template or
        pattern edited, a daemon reassigned -- changes this digest, so
        parse-cache entries re-key automatically per catalog.
        """
        h = hashlib.sha256()
        h.update(self.name.encode())
        h.update(b"\x00")
        for key in sorted(self.events):
            spec = self.events[key]
            h.update(
                f"{key}\x00{spec.source.value}\x00{spec.daemon}\x00"
                f"{spec.severity.value}\x00{spec.template}\x00"
                f"{spec.pattern.pattern}\x01".encode()
            )
        return h.hexdigest()

    @cached_property
    def daemons(self) -> frozenset[str]:
        """Every daemon tag this dialect claims (dispatch + chatter)."""
        return frozenset(self.dispatchers) | frozenset(self.daemon_sources)

    # -- vocabulary access ---------------------------------------------
    def event_spec(self, key: str) -> "EventSpec":
        """Look up an event spec; raises KeyError with suggestions."""
        try:
            return self.events[key]
        except KeyError:
            close = ", ".join(
                sorted(k for k in self.events if key.split("_")[0] in k)[:5]
            )
            raise KeyError(
                f"unknown event {key!r} in catalog {self.name!r}; "
                f"similar: {close or '<none>'}"
            ) from None

    def events_for_daemon(self, daemon: str) -> list["EventSpec"]:
        """All specs reported by a daemon tag."""
        return [s for s in self.events.values() if s.daemon == daemon]

    def source_for_daemon(self, daemon: str) -> LogSource:
        """Log source a daemon's chatter lines belong to."""
        return self.daemon_sources.get(daemon, self.default_source)


#: name -> registered catalog; builtins appear on first use
CATALOGS: dict[str, PlatformCatalog] = {}


def compile_dispatchers(
    events: Mapping[str, "EventSpec"],
) -> "dict[str, DaemonDispatcher]":
    """Group a vocabulary's specs into per-daemon single-pass dispatchers.

    The standard way to build a :class:`PlatformCatalog`'s
    ``dispatchers`` mapping from its ``events`` mapping (both builtin
    dialects and ``docs/PLATFORMS.md``'s third-party recipe use it).
    """
    # imported lazily: catalog.py imports *us* at module import time
    from repro.logs.catalog import DaemonDispatcher

    by_daemon: dict[str, list["EventSpec"]] = {}
    for spec in events.values():
        by_daemon.setdefault(spec.daemon, []).append(spec)
    return {d: DaemonDispatcher(d, specs) for d, specs in by_daemon.items()}


def register_catalog(
    catalog: PlatformCatalog, *, replace: bool = False
) -> PlatformCatalog:
    """Register a catalog under its name; returns it for chaining."""
    if not replace and catalog.name in CATALOGS:
        raise ValueError(f"platform catalog {catalog.name!r} already registered")
    CATALOGS[catalog.name] = catalog
    return catalog


def _load_builtins() -> None:
    for module in _BUILTIN_MODULES.values():
        importlib.import_module(module)


def get_catalog(name: str) -> PlatformCatalog:
    """The registered catalog for a name (builtins load lazily)."""
    catalog = CATALOGS.get(name)
    if catalog is None and name in _BUILTIN_MODULES:
        importlib.import_module(_BUILTIN_MODULES[name])
        catalog = CATALOGS.get(name)
    if catalog is None:
        _load_builtins()
        known = ", ".join(sorted(CATALOGS)) or "<none>"
        raise KeyError(f"unknown platform catalog {name!r}; registered: {known}")
    return catalog


def catalog_names() -> list[str]:
    """All registered catalog names (loads builtins first), sorted."""
    _load_builtins()
    return sorted(CATALOGS)


def resolve_catalog(
    catalog: "str | PlatformCatalog | None",
) -> PlatformCatalog:
    """Normalise a catalog argument: None -> default, str -> lookup."""
    if catalog is None:
        return get_catalog(DEFAULT_PLATFORM)
    if isinstance(catalog, str):
        return get_catalog(catalog)
    return catalog


def detect_platform(lines: Iterable[str], *, limit: int = 200) -> str | None:
    """Sniff the dialect of raw log lines from their daemon tags.

    Scores each registered catalog by how many of the first ``limit``
    well-framed lines carry one of its daemon tags; the unique highest
    scorer wins.  Returns ``None`` when no catalog matches any line or
    two catalogs tie -- callers decide the fallback (the store falls
    back to :data:`DEFAULT_PLATFORM` with a warning, never an error).
    """
    _load_builtins()
    scores = {name: 0 for name in CATALOGS}
    seen = 0
    for line in lines:
        if seen >= limit:
            break
        parts = line.split(" ", 3)
        if len(parts) < 4 or not parts[2].endswith(":"):
            continue
        seen += 1
        daemon = parts[2][:-1]
        for name, catalog in CATALOGS.items():
            if daemon in catalog.daemons:
                scores[name] += 1
    best = max(scores.values(), default=0)
    if best == 0:
        return None
    winners = [name for name, score in scores.items() if score == best]
    return winners[0] if len(winners) == 1 else None
