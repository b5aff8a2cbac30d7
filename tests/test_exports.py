import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import knockout

MODULES = sorted(
    f"knockout.{info.name}" for info in pkgutil.iter_modules(knockout.__path__)
)

DELETED = {
    # Superseded by the per-kind missing-input rules in knockout.methods.
    "knockout.augment": ("AugmentedRow", "augment_row", "impute_for_inference"),
    # Each method kind's fill lives in its rule, not in an imputer object;
    # dropout's random zeroing is its rule with a sampled per-entry mask.
    "knockout.baselines": ("MeanMode", "ZeroIndicator", "dropout_augment"),
    # The union of an induced and an observed mask is `augment.mask_union`.
    "knockout.methods": ("ImputedRule", "_union"),
    # The runner builds the plot rows and the aggregates from one
    # by_popcount call per report.
    "knockout.evaluate": ("marginal_fidelity", "marginal_jsd_metrics", "aggregates_dict"),
    # The out-of-support check computes every evidence of a pattern at once;
    # nothing read or wrote joint tables as text. The oracles are rational
    # only, so the float-or-Fraction alias and its zero helper went too.
    "knockout.discrete": (
        "make_evidence",
        "reachable_evidence",
        "load_joint_table",
        "dump_joint_table",
        "Prob",
        "_zero",
    ),
    # No world or config produced bounded, half-bounded or grouped features.
    # Rows are always an (n, d) batch, so no helper lifts one row to a batch.
    "knockout.schema": (
        "ContinuousBounded",
        "ContinuousHalfBounded",
        "StructuredGroup",
        "placeholder_in_support_violations",
        "stats_to_json",
        "stats_from_json",
        "_as_matrix",
        "_nan_to_none",
        # A feature's kind fixes its normalization: the stats are one affine
        # map per feature, the identity on categorical codes.
        "_MODES",
        "_mode_for_kind",
        "_zscored",
        # Each repetition normalizes its splits once; nothing maps back.
        "invert_normalization",
    ),
    # Training samples IID masks only; the mechanisms check their own ranges.
    "knockout.missingness": (
        "Grouped",
        "bits_to_mask",
        "Weighted",
        "MaskDistribution",
        "as_mask",
        "MCAR",
        "MNARSelfCensor",
    ),
    # World files are written, never read back.
    "knockout.worlds": ("world_to_json", "world_from_json", "make_class_world"),
    "knockout.nn": ("grad",),
    # A csv world is read once per process, not passed to each job. A
    # model file holds the network only, and `load_pipeline` reads it; the
    # task is the config's loss.
    "knockout.runner": ("_world_table", "pipeline_from_json", "_plain", "_task_for"),
}

# A model file holds the network only: `sweep` fits each rule, with its
# imputer, stats or policy, from the config again, so none of them is
# written to or read from JSON.
_JSON_DICT = ("to_json_dict", "from_json_dict")
_RULES = (
    "Rule",
    "KnockoutRule",
    "CommonBaselineRule",
    "DropoutRule",
    "ZeroIndicatorRule",
    "FittedImputerRule",
)

# Fields and methods no command reached: the retired normalization
# modes and their slots, a policy copy nothing read, unread accessors, a
# training field the augmentation hooks take from the experiment config,
# the float-table flag of the now rational-only joint, and the joint's
# sparse Fraction table with its dense cache, accessors and separate
# check: a joint is built from its integer table and checked then, as
# policies and stats are.
DELETED_MEMBERS = {
    # The stats are a local of the repetition that fits them; nothing
    # reads their length.
    "knockout.schema.NormalizationStats": (
        "d",
        "modes",
        "lo",
        "hi",
        "shift",
        "upper_sided",
        "validate",
        *_JSON_DICT,
    ),
    "knockout.schema.PlaceholderPolicy": ("zscore_magnitude", "validate", *_JSON_DICT),
    # A schema declares the features; the fitted stats stay with the
    # repetition that normalized its splits with them.
    "knockout.schema.FeatureSchema": (
        "policy",
        "groups",
        "with_policy",
        "names",
        "stats",
        "with_stats",
    ),
    "knockout.discrete.DiscreteJoint": (
        "is_exact",
        "table",
        "dense_table",
        "p",
        "support_x",
        "validate",
    ),
    "knockout.worlds.GaussianWorld": ("from_json_dict",),
    # The fills of common_baseline and dropout are their knockout placeholders.
    "knockout.methods.CommonBaselineRule": ("fill_values",),
    "knockout.methods.DropoutRule": ("fill_values",),
    # Each rate is solved from p_clean; no config set rescale or dumped test
    # data; the derived placeholders sit at +/-10 in z units, and only
    # knockout_value and observed_value move them.
    "knockout.config.MethodConfig": ("rate", "dropout_rate", "rescale", "zscore_magnitude"),
    "knockout.config.ExperimentConfig": ("dump_test_data",),
    # Fields with one value in use, or whose value other state fixes: hidden
    # layers are ReLU, Adam's constants and the trace interval are nn module
    # constants, a pipeline's task is its head's, lin-reg fell back where a
    # coefficient is None, a bin's mass is its count's share, nothing read
    # the bin edges, a report's repetitions are its per-repetition values, and
    # a pipeline's schema is its rule's, and a pipeline takes normalized rows,
    # so its inputs are its rule's.
    "knockout.nn.TrainConfig": ("mask_granularity", "beta1", "beta2", "eps", "trace_every"),
    "knockout.nn.NetworkSpec": ("activation",),
    "knockout.runner.ModelPipeline": ("task", "schema", "to_json_dict", "_model_inputs"),
    "knockout.baselines.LinReg": ("fell_back", *_JSON_DICT),
    "knockout.baselines.KNN": _JSON_DICT,
    **{f"knockout.methods.{rule}": ("to_json", "from_json") for rule in _RULES},
    "knockout.worlds.BinnedConditional": ("edges", "mass"),
    "knockout.evaluate.SweepReport": ("n_reps",),
}

# Parameters whose other values no caller passed: float joints, unsmoothed
# bins, and a merge mode string where the rule holds a flag.
DELETED_PARAMETERS = {
    "knockout.discrete.random_discrete_joint": ("exact",),
    "knockout.worlds.empirical_conditional": ("smoothing",),
    "knockout.augment.merge_observed": ("mode",),
    "knockout.runner.build_repetition": ("table",),
    "knockout.runner._schema_for": ("table",),
    "knockout.runner._method_job": ("table",),
    "knockout.runner._run_jobs": ("table",),
    # Its only caller had the predictions already.
    "knockout.evaluate.mse_vs_bayes": ("predict_fn",),
    # The model is queried through a callable of the pattern alone: it holds
    # its normalized test rows, and the raw ones feed only the Bayes oracle.
    "knockout.evaluate.regression_pattern_metrics": ("predict_fn",),
    "knockout.evaluate.classification_pattern_metrics": ("proba_fn", "x_test"),
    # The +/-10 in z units is a module constant.
    "knockout.schema.derive_placeholders": ("zscore_magnitude",),
    # `knockout sweep --k-max` is applied to the config as `run --k-max` is.
    "knockout.runner.sweep_saved_models": ("k_max",),
}


def test_every_package_export_resolves():
    for name in knockout.__all__:
        assert hasattr(knockout, name), name


@pytest.mark.parametrize("module_name", MODULES)
def test_every_module_export_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name", sorted(DELETED))
def test_deleted_names_are_gone(module_name):
    module = importlib.import_module(module_name)
    for name in DELETED[module_name]:
        assert not hasattr(module, name), f"{module_name}.{name}"
        assert not hasattr(knockout, name), name
        assert name not in knockout.__all__


@pytest.mark.parametrize("path", sorted(DELETED_MEMBERS))
def test_deleted_members_are_gone(path):
    module_name, class_name = path.rsplit(".", 1)
    cls = getattr(importlib.import_module(module_name), class_name)
    fields = {field.name for field in dataclasses.fields(cls)}
    for name in DELETED_MEMBERS[path]:
        assert not hasattr(cls, name) and name not in fields, f"{path}.{name}"


@pytest.mark.parametrize("path", sorted(DELETED_PARAMETERS))
def test_deleted_parameters_are_gone(path):
    module_name, function_name = path.rsplit(".", 1)
    function = getattr(importlib.import_module(module_name), function_name)
    parameters = inspect.signature(function).parameters
    for name in DELETED_PARAMETERS[path]:
        assert name not in parameters, f"{path}({name})"
