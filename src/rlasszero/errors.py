"""Exception types shared across the package.

The CLI maps InputError to exit code 2 and SolverFailure to 3.
BudgetExceededError comes only from library calls no subcommand makes.
"""


class InputError(ValueError):
    """Malformed or inconsistent user input (shapes, ranges, file contents)."""


class SolverFailure(RuntimeError):
    """The LP solver could not certify a solution (cycling guard, infeasible
    system that should be feasible by construction, too many failed solves)."""


class BudgetExceededError(RuntimeError):
    """A combinatorial search would exceed its budget: in the package, the
    sign-pattern search of :func:`rlasszero.analysis.check_stable_nsp`,
    whose budget counts the 2^(|S|+|T|-1) LPs it would solve. It is raised
    before any LP is solved."""
