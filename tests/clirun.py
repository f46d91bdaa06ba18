"""Run the ``bratteli`` CLI in-process, as a test sees it.

``invoke(argv)`` calls ``bratteli.cli.main(argv)`` with stdout and stderr
captured and returns its exit code and both streams.  ``output`` is stdout
followed by stderr, the text a terminal shows when the two do not interleave.
``env`` sets environment variables for the call only (``COLUMNS`` fixes the
help layout's width).  ``main`` always ends in ``SystemExit``; a return is a
failure of the contract, not a result.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple
from unittest import mock

from bratteli.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self):
        return self.stdout + self.stderr


def invoke(argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as exc:
            code = exc.code
        else:
            raise AssertionError("main(%r) returned instead of exiting" % (argv,))
    return Result(code, out.getvalue(), err.getvalue())
