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


def test_the_public_names_are_exactly_these():
    # a change to the surface shows up here as a diff
    assert pinvnet.__all__ == [
        "ActivationKind", "apply", "format_kind", "invert", "parse_kind",
        "VarianceConfig", "VarianceReport", "mc_output_variance",
        "solution_count", "write_variance_csv",
        "Dataset", "CvPlan", "CvResult", "gen_regression", "gen_spiral",
        "load_csv", "stratified_kfold", "accuracy", "training_targets",
        "cv_search", "write_dataset_csv",
        "PinvnetError", "InvalidArgumentError", "DomainViolationError",
        "CsvParseError",
        "Matrix", "PinvOptions", "pinv", "penrose_residual", "sse",
        "write_matrix_csv",
        "NetworkSpec", "WeightSet", "forward", "hidden_activation",
        "parse_structure", "build_spec",
        "InitScheme", "TrainConfig", "TrainReport", "train",
        "__version__",
    ]


def test_deleted_and_internal_names_are_not_exported():
    for name in ("representation_check", "RepresentationReport",
                 "squared_bias", "variance_chain", "solve_least_squares",
                 "read_matrix_csv", "map_jobs", "as_array", "format_structure",
                 "LayerSpec", "InvalidConfigurationError", "back_target",
                 "invert_with_count", "augment", "receptive_mask",
                 "default_masks", "encode_targets", "expand_template", "EPS"):
        assert not hasattr(pinvnet, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pinvnet import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(pinvnet.__all__)
