"""One benchmark iteration: a `knockout` CLI call in a fresh process.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the CLI arguments, the config to parse during set-up, whether
to trace, and where to write the result: the monotonic time at which
set-up ended (`knockout` imported, config parsed), the exit code and, when
tracing, the spans. With `setup_only` the process stops after set-up and
reports the numpy build instead.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def _numpy_build() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)

    import click

    import knockout.cli
    from knockout.config import parse_config

    if spec["config"] is not None:
        with open(spec["config"]) as fh:
            parse_config(fh.read())
    result = {"setup_at": time.monotonic()}

    code = 0
    if spec["setup_only"]:
        result["numpy_build"] = _numpy_build()
    else:
        recorder = None
        if spec["trace"]:
            from spans import Recorder

            recorder = Recorder()
            recorder.install()
        try:
            knockout.cli.main(spec["argv"], standalone_mode=False)
        except click.ClickException as exc:
            exc.show()
            code = 1
        except Exception:
            traceback.print_exc()
            code = 1
        if recorder is not None:
            result["spans"] = recorder.to_json()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
