"""The package surface: every exported name resolves."""

import ffnewman


def test_every_export_resolves():
    missing = [name for name in ffnewman.__all__ if not hasattr(ffnewman, name)]
    assert missing == []
    assert len(set(ffnewman.__all__)) == len(ffnewman.__all__)
