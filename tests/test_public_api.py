"""The package's public surface: every exported name resolves."""

import stochlyap


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from stochlyap import *", namespace)
    namespace.pop("__builtins__")
    assert len(set(stochlyap.__all__)) == len(stochlyap.__all__)
    assert sorted(namespace) == sorted(stochlyap.__all__)
