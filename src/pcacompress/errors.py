"""Error taxonomy shared by the library and the command line.

Two failure classes matter to callers: bad input (exit code 2) and
numerical breakdown (exit code 3). Everything else is a plain bug and
surfaces as an ordinary exception.
"""


class InputError(ValueError):
    """Malformed or inconsistent user input (files, shapes, parameters)."""

    exit_code = 2


class ParseError(InputError):
    """Input file rejected; carries the offending line number when known."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


class NumericalError(RuntimeError):
    """Iterative numerical procedure failed to converge or degenerated."""

    exit_code = 3
