"""Exception types shared across the package."""


class MatchGamesError(Exception):
    """Base class for all library errors."""


class MalformedRationalError(MatchGamesError):
    """A rational literal could not be parsed exactly."""


class DimensionMismatchError(MatchGamesError):
    """A payoff matrix does not match the owning agents' strategy counts."""


class MalformedCycleError(MatchGamesError):
    """A repeated pair's cycle is empty or steps outside its game's profiles."""


class MalformedMatchingError(MatchGamesError):
    """A matched pair has no game, or two roommates are matched one way only."""


class QuotaOutOfRangeError(MatchGamesError):
    """A hospital quota is not a JSON integer, or is below its floor: 1 in
    an instance, 0 in a contract model."""


class ClassTagViolationError(MatchGamesError):
    """A game's matrices contradict its declared class tag.

    Carries the first offending entry as ``(row, col, found, expected)``.
    """

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class NotStrictlyCompetitiveError(ClassTagViolationError):
    """No affine variant relates the two payoff matrices."""


class InfeasibleError(MatchGamesError):
    """A constrained optimisation problem has an empty feasible set."""


class GameValueCertificateError(MatchGamesError):
    """A zero-sum game value's answer fails its saddle-point certificate."""


class InfeasibleReservationsError(MatchGamesError):
    """No profile satisfies both reservation constraints."""


class EpsilonNotPositiveError(MatchGamesError):
    """A solver was invoked with epsilon <= 0."""


class InputNotPairwiseStableError(MatchGamesError):
    """The renegotiation process requires a pairwise stable input."""


class UnsupportedClassError(MatchGamesError):
    """The requested exact computation is not available for this game class."""


class ScanCapExceededError(MatchGamesError):
    """An exhaustive audit would exceed its configured size cap."""


class MalformedContractModelError(MatchGamesError):
    """A contract model refers to something it does not declare."""


class UnknownContractError(MalformedContractModelError):
    """A utility, weight or table key names a contract the model lacks."""


class UndeclaredHospitalError(MalformedContractModelError):
    """A contract sits at a hospital with neither weights nor a table."""


class ForeignContractError(MalformedContractModelError):
    """A hospital's weights or table key name another hospital's contract."""


class EmptySetValueError(MalformedContractModelError):
    """A hospital's table gives the empty contract set a nonzero value; being
    unmatched is always worth 0."""


class CapExceededError(MatchGamesError):
    """An enumeration would exceed its configured cap."""


class NotAnAspirationError(MatchGamesError):
    """realize_aspiration was handed a profile failing the aspiration equation."""
