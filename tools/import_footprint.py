"""Start-up cost of dsae: wall time, peak memory and the scipy modules loaded.

    python3 tools/import_footprint.py CHECKOUT

Runs a fresh interpreter for ``import dsae.cli`` and then one for each
command line of ``tools/artifact_digests.py``'s ``CLI_COMMANDS``, in
order, on its small synthetic ``CLI_CONFIG`` in a temporary directory,
with ``dsae`` imported from CHECKOUT's ``src/`` on one BLAS thread. For
each it prints one line: the wall seconds of the whole interpreter, its
``ru_maxrss`` in MB, and how many ``scipy`` modules it loaded with the
public subpackages among them. Compare two checkouts by running it on each,
alternately, on the same machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from artifact_digests import CLI_COMMANDS, CLI_CONFIG, CLI_KB

# run in the child: import dsae from SRC, run the command line ARGV if
# there is one, and print the status, the peak RSS and the scipy modules
CHILD = """\
import contextlib, io, json, resource, sys
from pathlib import Path
src, argv = sys.argv[1], json.loads(sys.argv[2])
sys.path.insert(0, src)
from dsae import cli
if Path(cli.__file__).resolve().parent != (Path(src) / "dsae").resolve():
    raise SystemExit(f"error: dsae imported from {cli.__file__}, not {src}")
status = 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
print(json.dumps({"status": status,
                  "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy" and sys.modules[m])}))
"""


def measure(src: Path, argv: list[str]) -> tuple[float, dict]:
    """The wall seconds of a fresh interpreter that runs argv, and what it reports."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    began = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), json.dumps(argv)],
                          env=env, capture_output=True, text=True)
    wall = time.perf_counter() - began
    if done.returncode != 0:
        raise SystemExit(f"error: {argv or 'import'} failed:\n{done.stderr}")
    report = json.loads(done.stdout.splitlines()[-1])
    if report["status"] != 0:
        raise SystemExit(f"error: dsae {' '.join(argv)} exited {report['status']}")
    return wall, report


def describe(modules: list[str]) -> str:
    if not modules:
        return "scipy: none"
    public = sorted({".".join(m.split(".")[:2]) for m in modules if m.count(".")
                     and not m.split(".")[1].startswith("_")})
    return f"scipy: {len(modules)} modules ({', '.join(public) or 'scipy'})"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    src = Path(argv[0]).resolve() / "src"
    if not (src / "dsae" / "__init__.py").is_file():
        raise SystemExit(f"error: no dsae sources at {src / 'dsae'}")
    with tempfile.TemporaryDirectory() as tmp:
        config, kb, out = Path(tmp, "config.json"), Path(tmp, "kb.csv"), Path(tmp, "out")
        config.write_text(json.dumps(CLI_CONFIG))
        kb.write_text(CLI_KB)
        runs = [("import dsae.cli", [])]
        runs += [(" ".join(command), [*command, "--config", str(config), "--out", str(out),
                                      "--kb", str(kb)]) for command in CLI_COMMANDS]
        for label, command in runs:
            wall, report = measure(src, command)
            print(f"{label:<34} {wall:7.3f} s {report['rss_mb']:7.1f} MB  "
                  f"{describe(report['scipy'])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
