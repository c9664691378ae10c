"""Exception hierarchy shared by all modules."""


class SoficError(Exception):
    """Base class for all library errors."""


class EmptyWord(SoficError):
    pass


class InvalidCombRep(SoficError):
    """A term violates the aperiodic-junction side condition."""


class EmptyRepresentation(SoficError):
    pass


class NotRightResolving(SoficError):
    """Some vertex has two outgoing edges with the same label."""


class NotCountableCertified(SoficError):
    """Two simple cycles of the presentation share a vertex."""


class RankTooHigh(SoficError):
    """The presentation has a path visiting three or more cycles."""


class BudgetExceeded(SoficError):
    """An enumeration needs more steps than its budget, or was given a
    budget below 1, or None for a node budget."""


class MalformedStructureGraph(SoficError):
    pass


class NotRankOne(SoficError):
    """A structure graph has a nondiagonal or count>1 transition edge."""


class WitnessInvalid(SoficError):
    pass


class ImproperColoring(SoficError):
    pass


class IsolatedVertex(SoficError):
    pass


class ReservedSymbol(SoficError):
    """A vertex name collides with a symbol that a gadget reserves."""


class TooLarge(SoficError):
    """Instance exceeds the hard cap of a brute-force oracle."""


class ParseError(SoficError):
    pass


class SizeLimitExceeded(SoficError):
    """Internal subset construction grew past its guard."""
