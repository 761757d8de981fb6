"""Exception types raised deliberately by this package."""


class OrdkitError(Exception):
    """Base class for every error the library raises on purpose."""


class InputError(OrdkitError):
    """Malformed external input; the message names the offending JSON path."""


class ElementOutsideUniverse(OrdkitError):
    def __init__(self, atom):
        self.atom = atom
        super().__init__(f"member element {atom!r} is not in the universe")


class DuplicateUniverseElement(OrdkitError):
    def __init__(self, atom):
        self.atom = atom
        super().__init__(f"universe element {atom!r} occurs more than once")


class EmptyOperandList(OrdkitError):
    pass


class UnknownElement(OrdkitError):
    def __init__(self, atom):
        self.atom = atom
        super().__init__(f"{atom!r} is not an element of the carrier")


class UniverseTooLarge(OrdkitError):
    """A request over a size budget; the message names what was counted."""

    def __init__(self, size, bound, what="carrier", unit="elements"):
        self.size = size
        self.bound = bound
        super().__init__(f"{what} has {size} {unit}, limit is {bound}")


class CarrierMismatch(OrdkitError):
    pass


class NotALattice(OrdkitError):
    pass


class RelationNotClosed(OrdkitError):
    pass


class HypothesisNotInSystem(OrdkitError):
    pass


class ElementOutsideField(OrdkitError):
    def __init__(self, atom):
        self.atom = atom
        super().__init__(f"{atom!r} is not in the trace field")


class FieldMismatch(OrdkitError):
    pass


class NotASimulation(OrdkitError):
    pass


class NotLinear(OrdkitError):
    pass


class InvalidArity(OrdkitError):
    pass


class InvalidQuery(OrdkitError):
    pass


class SearchBoundExceeded(OrdkitError):
    def __init__(self, size, bound):
        self.size = size
        self.bound = bound
        super().__init__(f"search size {size} exceeds the exhaustive bound {bound}")


class AlphabetMismatch(OrdkitError):
    pass


class BoundMismatch(OrdkitError):
    pass


class UnknownFamily(OrdkitError):
    pass


class HorizonRequired(OrdkitError):
    pass
