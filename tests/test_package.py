"""Package surface: every exported name resolves."""

import chaintomo


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from chaintomo import *", namespace)  # raises AttributeError on a stale __all__ entry
    assert set(chaintomo.__all__) <= namespace.keys()
    assert len(chaintomo.__all__) == len(set(chaintomo.__all__))
