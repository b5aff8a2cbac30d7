"""Training-time knockout augmentation for missing-input robustness.

One model learns both the full conditional and every marginal it may be
asked for: during training, randomly selected features are replaced by
fixed placeholder values, and at inference the same placeholders stand
in for whatever is missing.

The package root loads no submodule, so that each command loads only the
modules it runs; import every name from its own module
(``knockout.nn``, ``knockout.runner``, ...).
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
