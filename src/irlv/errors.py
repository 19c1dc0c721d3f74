"""The one exception the CLI reports as a numeric failure (exit 3)."""


class NumericError(ValueError):
    """Degenerate data or a numeric breakdown: diverged training, a
    zero-variance feature, a one-class split, an indefinite embedding."""
