"""Run the ``idde serve`` entry point in this process, for the benchmark.

Usage::

    python3 perfbench/serve_launcher.py --out FILE [--trace] -- serve [idde serve flags]

With ``--trace`` the layer shim (:mod:`layers`) is installed before the
CLI builds the daemon, so every span the daemon records is in this
process.  After the SIGTERM drain returns, the launcher writes ``FILE``:
the CLI's exit code, the process's peak RSS, the resident allocation the
daemon served last (the wire document carries no allocation, and the
benchmark re-checks its certificate independently), and the span log
when traced.  Exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from layers import Recorder, wrapper_cost_s  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the exit dump")
    parser.add_argument("--trace", action="store_true", help="install the layer shim")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- serve [flags]")
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import repro.cli
    from repro.serve import session as session_module

    recorder = Recorder()
    if args.trace:
        recorder.install()
    sessions: list = []
    init = session_module.SolverSession.__init__

    def capture(self, *a, **kw) -> None:  # one call per daemon boot
        init(self, *a, **kw)
        sessions.append(self)

    session_module.SolverSession.__init__ = capture
    code = repro.cli.main(cli)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    dump: dict = {"exit": code, "peak_rss_mb": peak_rss_mb}
    if sessions and sessions[0].solution is not None:
        session = sessions[0]
        solution = session.solution
        dump.update(
            epoch=session.epoch,
            n_active=session.state.n_active,
            server=solution.allocation.server.tolist(),
            channel=solution.allocation.channel.tolist(),
            effective_epsilon=solution.game.effective_epsilon,
        )
    if args.trace:
        recorder.uninstall()
        dump["spans"] = recorder.spans()
        dump["wrapper_s"] = wrapper_cost_s()
    Path(args.out).write_text(json.dumps(dump), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
