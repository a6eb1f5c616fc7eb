"""The package's public API: each module's ``__all__``, listed once."""

import krauscape
from krauscape import analysis, landscape, qcore, stiefel

MODULES = (qcore, stiefel, landscape, analysis)


def test_all_is_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert krauscape.__all__ == names + ["__version__"]
    assert len(set(krauscape.__all__)) == len(krauscape.__all__) == 62


def test_names_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(krauscape, name) is getattr(module, name)
    assert isinstance(krauscape.__version__, str)
