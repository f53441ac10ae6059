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
    pass


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


# --- data generation -------------------------------------------------------

class InfeasibleConfig(PipelineError):
    pass
