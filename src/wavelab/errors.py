"""The two exception types, one per failing exit code of the CLI."""


class InputError(Exception):
    """Malformed or inconsistent input, a bad option or a size over the cell cap: exit 2."""


class VerificationError(Exception):
    """A check, a precondition or an iterative solve failed on well-formed input: exit 1.

    ``residual`` carries the last residual of a solve that stopped early.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
