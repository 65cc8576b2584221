"""Run the gsiplab CLI in this interpreter under the speed sampler.

    python3 bench/cli_child.py <gsiplab cli arguments>

Behaves as ``python -m gsiplab.cli`` (gsiplab must be importable), then
writes ``speed-scale <x>`` as the last line of standard error: reference
seconds per wall second over the life of this process (``speed.py``).  The
benchmark's ``cli`` workload starts the CLI through this file, because a
subprocess's speed is best measured in the subprocess.
"""
import runpy
import sys
import time

import speed


def main():
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        try:
            runpy.run_module("gsiplab.cli", run_name="__main__", alter_sys=True)
            code = 0
        except SystemExit as e:
            code = e.code
        scale = sampler.scale(t0, time.perf_counter() - t0)
    sys.stdout.flush()
    print(f"speed-scale {scale!r}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
