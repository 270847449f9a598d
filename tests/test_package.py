import qde


def test_every_public_name_resolves():
    # a name deleted from a module must leave __all__ too
    missing = [name for name in qde.__all__ if not hasattr(qde, name)]
    assert missing == []
    assert len(set(qde.__all__)) == len(qde.__all__)
