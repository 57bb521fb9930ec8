"""sha256 of what the benchmark workloads and the CLI of a source checkout write.

    python3 tools/artifact_digests.py CHECKOUT

For seeds 1 to 3, runs one round of each workload of CHECKOUT's
``perfbench/workloads.py`` in a temporary directory (``mine`` after its
``generate`` and ``prepare``, which train and save its models) and prints
one line ``workload seed artifact sha256`` for each bundle of the round,
for the round's scores and for ``mine``'s ``crf.json``, ``cnn.json`` and
``signals.tsv``. Then it runs CHECKOUT's ``dsae.cli.main`` there on a
small synthetic config (``CLI_CONFIG``, with a two-row KB) through each
command line of ``CLI_COMMANDS``, the BiLSTM-CRF's ``train-ner`` and
``eval-ner`` among them, and prints one line ``cli - artifact sha256``
for each file they write but ``manifest.json``, which records the
temporary paths. Two checkouts train the same models and write the same
outputs when the outputs of

    python3 tools/artifact_digests.py A > a.txt
    python3 tools/artifact_digests.py B > b.txt

do not ``diff``. The program is imported from CHECKOUT's ``src/`` and the
workloads from its ``perfbench/``, on one BLAS thread, as
``perfbench/run.py`` runs them.
"""

from __future__ import annotations

import os

# read when numpy loads, so set before anything imports it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)
MINE_FILES = ("crf.json", "cnn.json", "signals.tsv")
CLI_CONFIG = {
    "synthetic_docs": 120,
    "seed": 3,
    "crf": {"max_iter": 30},
    "cnn": {"epochs": 3, "batch_size": 16},
    "lstm_crf": {"epochs": 3},
    "max_len": 24,
}
CLI_KB = "supplement,event,relation\nvitamin c,nausea,AdverseEvent\nmelatonin,insomnia,Indication\n"
# each command, with the CRF but where the BiLSTM-CRF is named
CLI_COMMANDS = (("train-ner",), ("train-ner", "--model", "lstm_crf"), ("eval-ner",),
                ("eval-ner", "--model", "lstm_crf"), ("train-re",), ("eval-re",),
                ("pipeline",), ("aggregate",), ("compare-kb",), ("report",))


def import_checkout(checkout: Path):
    """CHECKOUT's ``perfbench/workloads.py``, with ``dsae`` from its ``src/``."""
    src, bench = checkout / "src", checkout / "perfbench"
    sys.path[:0] = [str(src), str(bench)]
    import dsae
    if Path(dsae.__file__).resolve().parent != (src / "dsae").resolve():
        raise SystemExit(f"error: dsae imported from {dsae.__file__}, not {src / 'dsae'}")
    import workloads
    return workloads


def cli_artifacts(workdir: Path) -> dict[str, bytes]:
    """Each file the CLI commands write from ``CLI_CONFIG``, by name."""
    from dsae import cli
    workdir.mkdir()
    config, kb, out = workdir / "config.json", workdir / "kb.csv", workdir / "out"
    config.write_text(json.dumps(CLI_CONFIG))
    kb.write_text(CLI_KB)
    for command in CLI_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main([*command, "--config", str(config), "--out", str(out),
                               "--kb", str(kb)])
        if status != 0:
            raise SystemExit(f"error: dsae {' '.join(command)} exited {status}")
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__.split("\n\n")[1])
    workloads = import_checkout(Path(argv[0]).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for name, cls in workloads.WORKLOADS.items():
                workload = cls(seed, Path(tmp) / f"{name}-{seed}")
                workload.generate()
                workload.prepare()
                r = workload.round()
                lines = {f"bundle:{key}": blob for key, blob in r.bundles.items()}
                lines["scores"] = json.dumps(r.scores, sort_keys=True).encode()
                if name == "mine":
                    lines.update((file, workload.paths[file].read_bytes()) for file in MINE_FILES)
                for artifact, data in lines.items():
                    print(name, seed, artifact, hashlib.sha256(data).hexdigest(), flush=True)
        for artifact, data in cli_artifacts(Path(tmp) / "cli").items():
            print("cli", "-", artifact, hashlib.sha256(data).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
