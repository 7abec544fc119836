"""Exception and warning types shared across the pipeline.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit codes (3 = data error, 4 = numeric failure) without
inspecting types at each call site.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all pipeline errors."""

    exit_code = 3


class NumericError(PipelineError):
    """Numeric failure (non-finite values, degenerate math)."""

    exit_code = 4


# audio_io
class UnsupportedFormatError(PipelineError):
    pass


class CorruptHeaderError(PipelineError):
    pass


class EmptyAudioError(PipelineError):
    pass


class ShapeMismatchError(PipelineError):
    pass


# features
class SignalTooShortError(PipelineError):
    pass


class InvalidFftSizeError(PipelineError):
    pass


class InvalidBandRangeError(PipelineError):
    pass


class AllZeroSpectrogramError(NumericError):
    pass


class SpectrogramTooShortError(PipelineError):
    pass


class TooManyCoefficientsError(PipelineError):
    pass


# detector_api
class StandardizerMissingError(PipelineError):
    pass


class VersionMismatchError(PipelineError):
    pass


class CorruptModelFileError(PipelineError):
    pass


class DimensionMismatchError(PipelineError):
    pass


class NonFiniteScoresError(NumericError):
    pass


# detectors
class TooFewSamplesError(PipelineError):
    pass


class InfeasibleNuError(PipelineError):
    pass


# calibration / metrics
class EmptyInputError(PipelineError):
    pass


class DegenerateLabelsError(PipelineError):
    pass


class LengthMismatchError(PipelineError):
    pass


class SingleClassInputError(PipelineError):
    pass


# synthgen / cli
class ClipTooShortError(PipelineError):
    pass


class IoFailureError(PipelineError):
    pass


class ManifestError(PipelineError):
    pass


class ConfigError(PipelineError):
    pass


# Warnings: conditions the contracts define as recoverable.
class SilentInputWarning(UserWarning):
    """Input too quiet to normalize; returned unchanged."""


class DegenerateDataWarning(UserWarning):
    """Training data degenerate (e.g. all rows identical); resolved in place."""


class NonConvergenceWarning(UserWarning):
    """Iterative solver hit its budget before reaching tolerance."""


class NonFiniteLossWarning(UserWarning):
    """Training loss went non-finite; last finite checkpoint kept."""
