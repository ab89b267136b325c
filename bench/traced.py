"""Run one rbmpo CLI command with every public rbmpo function traced.

Usage (from the repository's ``src/`` directory, as the benchmark does)::

    python ../bench/traced.py SPANS_OUT RUN_ID -- generate ../configs/phase_flip.json -o out

Every public function of the traced modules is wrapped in a span recorder,
and every name it is bound to in those modules is rebound to the wrapper, so
calls through ``from .x import f`` imports are seen too.  Private names (a
leading underscore) are left alone.  Spans (name, start, end, parent) live
in memory as flat arrays and are written to SPANS_OUT as one JSON record
when the command returns; every span of the process shares RUN_ID.  The
process exits with the command's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

MODULES = (
    "average", "cli", "learner", "linalg", "noise",
    "process_tensor", "quantum", "rb", "serialize",
)


class SpanRecorder:
    """Nested spans of one single-threaded process, stored column-wise."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name = array("I")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack, names, parents, starts, ends = (
            self._stack, self.name, self.parent, self.start, self.end
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }


def instrument(recorder: SpanRecorder) -> None:
    """Wrap the public functions of MODULES and rebind them at every binding site."""
    import rbmpo

    modules = {short: importlib.import_module(f"rbmpo.{short}") for short in MODULES}
    wrappers = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                wrappers[obj] = recorder.wrap(f"{short}.{attr}", obj)
    for mod in (rbmpo, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced.py SPANS_OUT RUN_ID -- <rbmpo arguments>", file=sys.stderr)
        return 2
    spans_out, run_id, cli_args = argv[0], argv[1], argv[3:]
    sys.path.insert(0, os.getcwd())
    recorder = SpanRecorder(run_id)
    instrument(recorder)
    from rbmpo import cli

    code = cli.main(cli_args)
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(recorder.to_dict(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
