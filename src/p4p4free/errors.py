"""Exception types shared across the package.

The solver distinguishes three failure families: bad caller input, graphs
that fall outside the supported class (a concrete forbidden subgraph is
attached as a witness), and internal structural guarantees that failed to
hold (also carrying a witness).  The CLI maps these onto distinct exit
codes.
"""

from __future__ import annotations


class InputError(ValueError):
    """Arguments violate an operation's contract (bad ids, negative weights...)."""


class ParseError(ValueError):
    """Graph file is syntactically invalid.

    Attributes:
        line: 1-based line number of the offending line, or None.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class GuardError(RuntimeError):
    """An exponential-time helper was invoked above its size guard."""


class ClassViolation(RuntimeError):
    """The graph is not triangle-free or contains two independent induced P4s.

    Attributes:
        witness: tuple describing the forbidden structure:
            ("triangle", (u, v, w)) or ("p4_pair", (p, q)) with p and q the
            vertex tuples of two separated induced P4s.  Witnesses leaving
            the public solvers have been re-checked against the input.
    """

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class StructureViolation(RuntimeError):
    """A structural guarantee the solver relies on failed to hold.

    Raised when a claimed decomposition property is contradicted by the
    instance (e.g. a component that should carry a complete-bipartite
    certificate does not), or when the branching refuses an input already
    verified to be a class member.  Carries the offending object as
    ``witness``.
    """

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness
