"""Exception types shared across the package."""


class BeliefShieldError(Exception):
    """Base class for all package-specific errors."""


class ZeroLikelihood(BeliefShieldError):
    """The observation has (numerically) zero probability under the
    predicted belief, so the posterior is undefined."""

    def __init__(self, action: int, observation: int, denominator: float):
        self.action = action
        self.observation = observation
        self.denominator = denominator
        super().__init__(
            f"observation {observation} has likelihood {denominator:.3e} <= 1e-12 "
            f"under action {action}; posterior undefined"
        )


class FormulaSyntaxError(BeliefShieldError):
    """Malformed formula or belief-expression text."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"line {line}, column {column}: {message}{hint}")


class NegationOfCompound(FormulaSyntaxError):
    """`!` applied to anything other than an atom (or a parenthesized
    disjunction of atoms, which is normalized away)."""


class UnknownState(BeliefShieldError):
    """A formula or expression names a state absent from the model."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown state name: {name!r}")


class UnknownPredicate(BeliefShieldError):
    """A formula names a predicate absent from the predicate table."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown predicate name: {name!r}")


class UnsupportedNesting(BeliefShieldError):
    """Formula shape outside the monitorable fragment (top-level
    conjunction of temporal obligations over propositional cores)."""


class InvalidStart(BeliefShieldError):
    """Reach-time bound requested for a start value already inside the
    target set (h0 >= 0)."""

    def __init__(self, h0: float):
        self.h0 = h0
        super().__init__(f"initial barrier value {h0} is already >= 0; no bound needed")


class SafetyDeadlock(BeliefShieldError):
    """No joint action passes the monitor at this step."""

    def __init__(self, step: int, candidate_barriers: dict[int, dict[str, float]]):
        self.step = step
        self.candidate_barriers = candidate_barriers
        super().__init__(
            f"no safe joint action at step {step}; "
            f"checked {len(candidate_barriers)} candidates"
        )


class TraceMismatch(BeliefShieldError):
    """Replayed belief diverges from the recorded one."""

    def __init__(self, episode: int, step: int, max_error: float):
        self.episode = episode
        self.step = step
        self.max_error = max_error
        super().__init__(
            f"episode {episode} step {step}: replayed belief deviates from the "
            f"recorded one by {max_error:.3e} (> 1e-9)"
        )


class ConfigError(BeliefShieldError):
    """Scenario config file failed validation."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
