"""In-process replay of a call list through ``pairrank.cli.main``.

Usage: python3 traced.py CALLS_JSON OUT_JSON

CALLS_JSON holds ``{"src": <dir holding pairrank>, "calls": [argv, ...]}``.
Each call runs twice in this one interpreter, back to back: untraced, then
with the span wrappers of ``spans.py`` installed (they are removed again
before the next call), so both runs of a call see the same machine state.
OUT_JSON receives, written once at the end, the wall time, exit code and
stdout of every run, and the spans of the traced runs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def replay(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    return {"wall_s": time.perf_counter() - start, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]}


def main() -> int:
    calls_path, out_path = sys.argv[1:3]
    with open(calls_path, encoding="utf-8") as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    import pairrank.cli

    import spans

    tracer = spans.Tracer()
    untraced, traced = [], []
    for index, argv in enumerate(spec["calls"]):
        untraced.append(replay(pairrank.cli.main, argv))
        patches = spans.install(tracer)
        tracer.call = index
        try:
            traced.append(replay(pairrank.cli.main, argv))
        finally:
            spans.uninstall(patches)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"untraced": untraced, "traced": traced,
                   "spans": tracer.spans}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
