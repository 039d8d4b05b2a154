"""The package's public names: each is declared once, in its module's
`__all__`, and the package re-exports exactly those lists."""
import pinvnet

MODULES = (pinvnet.activations, pinvnet.analysis, pinvnet.datasets,
           pinvnet.errors, pinvnet.linalg, pinvnet.network, pinvnet.training)


def test_package_all_is_the_module_lists_without_duplicates():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(pinvnet.__all__)) == len(pinvnet.__all__)
    assert pinvnet.__all__ == [*names, "__version__"]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(pinvnet, name) is getattr(module, name), name


def test_deleted_and_internal_names_are_not_exported():
    for name in ("representation_check", "RepresentationReport",
                 "squared_bias", "variance_chain", "solve_least_squares",
                 "read_matrix_csv", "map_jobs", "as_array"):
        assert not hasattr(pinvnet, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pinvnet import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(pinvnet.__all__)
