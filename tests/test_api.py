"""The package's public names."""

import inkbasis


def test_all_names_resolve():
    missing = [name for name in inkbasis.__all__ if not hasattr(inkbasis, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(inkbasis.__all__)) == len(inkbasis.__all__)
