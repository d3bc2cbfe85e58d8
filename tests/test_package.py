import d2dpa


def test_every_export_resolves():
    missing = [name for name in d2dpa.__all__ if not hasattr(d2dpa, name)]
    assert missing == []
