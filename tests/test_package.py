"""The package's public names: each library module's ``__all__``, re-exported once."""

import sscosamp
from sscosamp import analysis, bench, errors, linalg, model, projections, recovery

MODULES = (analysis, bench, errors, linalg, model, projections, recovery)


def test_module_lists_share_no_name():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_every_listed_name_is_the_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sscosamp, name) is getattr(module, name), (module.__name__, name)


def test_package_all_is_the_union_of_the_module_lists():
    assert set(sscosamp.__all__) == {name for module in MODULES for name in module.__all__}
    assert len(sscosamp.__all__) == len(set(sscosamp.__all__))
