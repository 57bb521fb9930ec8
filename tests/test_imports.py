"""What importing and running dsae loads: scipy only where it is used.

``ner.features.index_features`` (the CRF and SVM training matrix) imports
``scipy.sparse`` and ``evaluate.paired_t_test`` imports ``scipy.special``;
nothing else imports scipy. Each check runs a fresh interpreter, so the
modules this test process has already loaded do not count.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = {
    "synthetic_docs": 40,
    "model": "lstm_crf",
    "crf": {"max_iter": 10},
    "lstm_crf": {"epochs": 1},
    "cnn": {"epochs": 1, "batch_size": 8},
    "max_len": 24,
}
KB = "supplement,event,relation\nvitamin c,nausea,AdverseEvent\n"
# every command that needs neither the CRF nor the SVM, with the BiLSTM-CRF as NER
NO_SCIPY_COMMANDS = ("train-ner", "eval-ner", "train-re", "eval-re", "pipeline",
                     "aggregate", "compare-kb", "report")


def run_python(code: str, cwd: Path) -> dict:
    """The JSON object that code prints last, run by a fresh interpreter
    that imports dsae from the source tree."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def write_inputs(tmp_path: Path) -> tuple[str, str, str]:
    config, kb = tmp_path / "config.json", tmp_path / "kb.csv"
    config.write_text(json.dumps(CONFIG))
    kb.write_text(KB)
    return str(config), str(kb), str(tmp_path / "out")


# the names of the scipy modules loaded so far, as a JSON list
SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' and sys.modules[m])"


def test_importing_the_cli_loads_no_scipy(tmp_path):
    code = f"import json, sys\nimport dsae.cli\nprint(json.dumps({{'scipy': {SCIPY_LOADED}}}))"
    assert run_python(code, tmp_path) == {"scipy": []}


def test_neural_commands_run_without_scipy(tmp_path):
    """With every scipy import refused, the BiLSTM-CRF and CNN commands and
    the signal commands all exit 0."""
    config, kb, out = write_inputs(tmp_path)
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None  # import scipy, and of any submodule, fails\n"
        "from dsae import cli\n"
        "status = {}\n"
        f"for command in {NO_SCIPY_COMMANDS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        status[command] = cli.main([command, '--config', {config!r}, "
        f"'--out', {out!r}, '--kb', {kb!r}])\n"
        "print(json.dumps(status))\n")
    assert run_python(code, tmp_path) == dict.fromkeys(NO_SCIPY_COMMANDS, 0)
    assert (Path(out) / "report.md").is_file()


def test_manifest_records_the_environment_without_loading_scipy(tmp_path):
    config, kb, out = write_inputs(tmp_path)
    code = (
        "import contextlib, io, json, sys\n"
        "from dsae import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main(['train-re', '--config', {config!r}, '--out', {out!r}])\n"
        f"print(json.dumps({{'status': status, 'scipy': {SCIPY_LOADED}}}))\n")
    assert run_python(code, tmp_path) == {"status": 0, "scipy": []}
    environment = json.loads((Path(out) / "manifest.json").read_text())["environment"]
    import dsae
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert environment == {"dsae": dsae.__version__,
                           "python": platform.python_version(),
                           "numpy": numpy.__version__, "scipy": scipy.__version__,
                           "blas": {"name": blas["name"], "version": blas["version"]},
                           "blas_threads": {"OPENBLAS_NUM_THREADS": "1",
                                            "OMP_NUM_THREADS": "1",
                                            "MKL_NUM_THREADS": os.environ.get("MKL_NUM_THREADS")},
                           "cpu_count": os.cpu_count()}


def test_crf_training_loads_scipy_sparse_only(tmp_path):
    config, kb, out = write_inputs(tmp_path)
    code = (
        "import contextlib, io, json, sys\n"
        "from dsae import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main(['train-ner', '--model', 'crf', '--config', {config!r}, "
        f"'--out', {out!r}])\n"
        f"print(json.dumps({{'status': status, 'scipy': {SCIPY_LOADED}}}))\n")
    result = run_python(code, tmp_path)
    assert result["status"] == 0
    assert "scipy.sparse" in result["scipy"]
    assert not [m for m in result["scipy"] if m.startswith("scipy.special")]
