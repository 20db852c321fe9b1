"""The package namespace: every exported name resolves."""

from __future__ import annotations

import conformal_lab


def test_every_exported_name_resolves():
    missing = [name for name in conformal_lab.__all__ if not hasattr(conformal_lab, name)]
    assert missing == []
