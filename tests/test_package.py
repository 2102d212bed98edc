import ast
import inspect

import agririsk as ar


def test_all_names_resolve():
    assert len(set(ar.__all__)) == len(ar.__all__)
    missing = [name for name in ar.__all__ if not hasattr(ar, name)]
    assert missing == []


def test_every_imported_name_is_exported():
    tree = ast.parse(inspect.getsource(ar))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public - set(ar.__all__) == set()
