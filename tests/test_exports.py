import tasklens


def test_every_export_resolves():
    missing = [name for name in tasklens.__all__ if not hasattr(tasklens, name)]
    assert missing == []
