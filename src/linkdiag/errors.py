"""Exception hierarchy shared by all linkdiag modules."""


class LinkdiagError(Exception):
    """Base class for all linkdiag errors."""


class DiagramSyntaxError(LinkdiagError):
    """Input text does not match the expected grammar."""


class InvariantError(LinkdiagError):
    """A structural invariant of a diagram or graph is violated."""


class NonPlanarError(InvariantError):
    """A slot-valid diagram code fails Euler's formula: it has no planar drawing."""


class AmbiguousOrientation(LinkdiagError):
    """PD sign inference could not determine strand orientations."""


class LoopEdgeError(LinkdiagError):
    """A crossing's two smoothed strands land on a single Seifert circle."""


class SizeLimitError(LinkdiagError):
    """Input exceeds a configured exact-computation cap."""


class SplitInputError(LinkdiagError):
    """Operation requires a non-split (connected) diagram."""


class NotHomogeneousError(LinkdiagError):
    """Operation requires a homogeneous diagram."""


class WitnessMismatchError(LinkdiagError):
    """A quasipositive witness fails invariant-level verification."""


class BraidRangeError(LinkdiagError):
    """Braid letter index out of range for the declared strand count."""


class CrossingRangeError(LinkdiagError):
    """Crossing id out of range for the diagram."""


class NotLoneError(LinkdiagError):
    """Crossing is not the unique edge between its two Seifert circles."""


class NotCutEdgeError(LinkdiagError):
    """Crossing's Seifert-graph edge is not a cut edge."""


class IterationLimitError(LinkdiagError):
    """Braidization failed to converge within its move budget."""


class ZeroPolynomialError(LinkdiagError):
    """Degree query on the zero polynomial."""
