"""The package namespace: `ringsim.__all__` against what `__init__` imports."""
import ast

import ringsim as rs


def _imported_names() -> set:
    with open(rs.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.level > 0
            for alias in node.names}


def test_every_exported_name_resolves():
    assert len(rs.__all__) == len(set(rs.__all__))
    missing = [name for name in rs.__all__ if not hasattr(rs, name)]
    assert missing == []


def test_every_public_import_is_exported():
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert public, "no package imports found in ringsim/__init__.py"
    assert sorted(public - set(rs.__all__)) == []


def test_no_oracle_ships_in_the_package():
    # reference computations live in tests/oracles.py, apart from the code
    # they judge
    for names in (rs.__all__, dir(rs.spectrum)):
        assert [name for name in names if name.endswith("_oracle")] == []
