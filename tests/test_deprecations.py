"""Removed spellings stay removed; refusals name the unified knobs.

API redesign contract (docs/API.md): renamed entry points kept working
for one release behind :class:`DeprecationWarning` shims, then the
shims went.  ``from_store``'s legacy ``policy=`` kwarg and positional
options now raise :class:`TypeError` instead of forwarding.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import HolisticDiagnosis
from repro.logs.health import ErrorPolicy


class TestRemovedSpellings:
    def test_from_store_legacy_options_are_type_errors(
            self, diagnosed_scenario):
        _, _, store = diagnosed_scenario
        with pytest.raises(TypeError, match="policy"):
            HolisticDiagnosis.from_store(store, policy="skip")
        with pytest.raises(TypeError, match="positional"):
            HolisticDiagnosis.from_store(store, "skip")


class TestUnifiedErrorPolicyMessages:
    """ISSUE 10: every refusal names the unified knob ``error_policy``."""

    def test_coerce_message_says_error_policy(self):
        with pytest.raises(ValueError, match="unknown error_policy"):
            ErrorPolicy.coerce("explode")

    def test_api_diagnose_bad_policy_says_error_policy(self, tmp_path):
        from repro import api

        with pytest.raises(ValueError, match="unknown error_policy"):
            api.DiagnoseRequest(logdir=str(tmp_path), error_policy="nope")

    def test_checkpoint_resume_mismatch_says_error_policy(self, tmp_path):
        from repro.runtime.journal import EventJournal, JournalError
        from repro.stream.checkpoint import CHECKPOINT_NAME

        checkpoint = EventJournal(tmp_path, CHECKPOINT_NAME)
        checkpoint.append("watch-start", window_days=1, error_policy="skip")
        with pytest.raises(JournalError, match="error_policy="):
            checkpoint.begin("watch", {"window_days": 1,
                                       "error_policy": "strict"},
                             resume=True)
