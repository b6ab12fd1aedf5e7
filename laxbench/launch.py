"""Run one laxrom command line and note when its set-up ends.

    python laxbench/launch.py MARK_FILE [--setup-only] -- LAXROM_ARGS...

Runs ``laxrom.cli.main(LAXROM_ARGS)`` unmodified, except that the first call
into ``dynamics.run`` (for ``laxrom scsa``: into ``scsa.chi_sweep``) writes
``time.monotonic()`` to MARK_FILE.  With ``--setup-only`` the process exits
right there, so the benchmark can repeat the set-up alone.  The program
must be importable (``PYTHONPATH=src``).
"""

import os
import sys
import time


def main(argv):
    split = argv.index("--")
    mark, setup_only = argv[0], "--setup-only" in argv[1:split]
    import laxrom.cli
    import laxrom.harness

    marked_once = []

    def first_call(attr):
        inner = getattr(laxrom.harness, attr)

        def marked(*args, **kwargs):
            if not marked_once:
                marked_once.append(True)
                with open(mark, "w") as f:
                    f.write(repr(time.monotonic()))
                if setup_only:
                    sys.stdout.flush()
                    os._exit(0)
            return inner(*args, **kwargs)

        setattr(laxrom.harness, attr, marked)

    # the names laxrom.harness looks the two entry points up by
    first_call("run")
    first_call("chi_sweep")
    return laxrom.cli.main(argv[split + 1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
