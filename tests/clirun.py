"""Run the ``ordkit`` command line in-process and capture what it prints."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Optional


class _Capture(io.StringIO):
    """A stream that also copies every write into a shared ``both`` stream."""

    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, in the order written
    exception: Optional[SystemExit]  # the exit, when its code is nonzero


class CliRunner:
    def invoke(self, main, args) -> Result:
        """``main(args)`` in standalone mode, with stdout and stderr captured."""
        both = io.StringIO()
        out, err = _Capture(both), _Capture(both)
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as exc:
                code = exc.code or 0
                exception = exc if code else None
        return Result(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)
