"""Exception hierarchy shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


# --- graph ingestion -------------------------------------------------------

class UnknownType(PipelineError):
    pass


class DanglingEdge(PipelineError):
    pass


class DimensionMismatch(PipelineError):
    pass


class DuplicateNodeId(PipelineError):
    pass


# --- pattern matching ------------------------------------------------------

class PatternTypeUnknown(PipelineError):
    pass


class InstanceCapExceeded(PipelineError):
    def __init__(self, pattern_id, anchor_id, cap):
        super().__init__(
            f"pattern {pattern_id!r}: anchor {anchor_id!r} exceeds instance cap {cap}"
        )
        self.pattern_id = pattern_id
        self.anchor_id = anchor_id
        self.cap = cap


class MalformedMetapath(PipelineError):
    pass


class NoLabeledPairs(PipelineError):
    pass


# --- numeric kernel --------------------------------------------------------

class ShapeMismatch(PipelineError):
    pass


class NotScalarLoss(PipelineError):
    pass


# --- model -----------------------------------------------------------------

class MissingProjection(PipelineError):
    pass


class EmptyBatch(PipelineError):
    pass


class DuplicateBatchNode(PipelineError):
    pass


# --- training --------------------------------------------------------------

class InsufficientSamples(PipelineError):
    pass


class DivergedLoss(PipelineError):
    pass


class EmptyTestSet(PipelineError):
    pass


class SingleClass(PipelineError):
    pass


# --- data generation / io --------------------------------------------------

class InfeasibleConfig(PipelineError):
    pass


class IoFailure(PipelineError):
    pass
