"""Set-up probe: import the conicshock CLI and make it ready, in a fresh
interpreter.  Prints this process's peak RSS in MB.  ``run.py`` times the
process from spawn to exit."""

import contextlib
import io
import resource

from conicshock.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    main(args=["--help"], prog_name="conicshock", standalone_mode=False)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
