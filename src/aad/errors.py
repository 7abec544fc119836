"""Exception and warning types shared across the pipeline.

A failure's type is its exit code: a ``PipelineError`` is a data error
(exit 3) and a ``NumericError`` a numeric failure (exit 4), each carried as
``exit_code`` so the CLI maps a failure without inspecting its type. The
message says which check refused the input.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Bad input data: a malformed file, a shape or value a stage refuses."""

    exit_code = 3


class NumericError(PipelineError):
    """Numeric failure (non-finite values, degenerate math)."""

    exit_code = 4


# Warnings: conditions the contracts define as recoverable.
class SilentInputWarning(UserWarning):
    """Input too quiet to normalize; returned unchanged."""


class DegenerateDataWarning(UserWarning):
    """Training data degenerate (e.g. all rows identical); resolved in place."""


class NonConvergenceWarning(UserWarning):
    """Iterative solver hit its budget before reaching tolerance."""


class NonFiniteLossWarning(UserWarning):
    """Training loss went non-finite; last finite checkpoint kept."""
