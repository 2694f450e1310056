"""The package surface: each public name is listed once, in its module's
`__all__`, and the package re-exports exactly those names."""

import qcatalan
from qcatalan import exactnum, limitlaw, moments, polyq, shape

MODULES = (exactnum, limitlaw, moments, polyq, shape)


def test_package_all_is_the_union_of_the_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed)), "a name is listed by two modules"
    assert sorted(qcatalan.__all__) == sorted(listed + ["__version__"])


def test_each_name_is_the_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(qcatalan, name) is obj, name
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_star_import_binds_the_public_names_only():
    namespace: dict = {}
    exec("from qcatalan import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(qcatalan.__all__)
    assert {name for name in bound if name.startswith("_")} == {"__version__"}
