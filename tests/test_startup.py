"""Start-up loads only what a call uses: `import metadist` loads none of its
modules, each exported name and module resolves on first use, and each CLI
subcommand loads only the modules it runs.  Each case starts a fresh
interpreter, since this one has long since loaded every module."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metadist
from metadist import sim

SRC = Path(metadist.__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# What every subcommand loads: the CLI and the moments with their engines.
CLI = ["metadist.cli", "metadist.moments", "metadist.quadrature", "metadist.specfun"]

_PRINT_LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("metadist."))))
"""


def _fresh(code: str, cwd: Path):
    """Run `code` in a fresh interpreter; the JSON on the last line it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(code: str, cwd: Path) -> list[str]:
    """The metadist.* modules loaded once `code` has run in a fresh interpreter."""
    return _fresh(code + _PRINT_LOADED, cwd)


def test_import_loads_no_module(tmp_path):
    assert _loaded("import metadist", tmp_path) == []


def test_names_and_modules_resolve_on_first_use(tmp_path):
    got = _fresh("""
import json, metadist
listed = dir(metadist)
star = {}
exec("from metadist import *", star)
print(json.dumps({
    "dir": listed,
    "star": sorted(n for n in star if n != "__builtins__"),
    "sim": metadist.sim.__name__,
    "reg_inc_beta": metadist.specfun.reg_inc_beta.__module__,
}))
""", tmp_path)
    assert got["star"] == metadist.__all__ and len(got["star"]) == 32
    modules = ["cli", "jacobi", "moments", "quadrature", "scaling", "sim", "specfun"]
    assert set(metadist.__all__ + modules) <= set(got["dir"])
    assert (got["sim"], got["reg_inc_beta"]) == ("metadist.sim", "metadist.specfun")


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        metadist.nope


@pytest.mark.parametrize("argv, extra", [
    (["moments"], []),
    (["power", "--x-rel", "0.3", "--epsilon", "0.7"], ["metadist.scaling"]),
    (["reconstruct"], ["metadist.jacobi"]),
    (["simulate", "--realizations", "20", "--out", "s.csv"], ["metadist.sim"]),
    (["compare", "--samples", "c.csv"], ["metadist.jacobi", "metadist.sim"]),
])
def test_each_subcommand_loads_only_what_it_uses(tmp_path, argv, extra):
    sim.write_samples_csv([0.2, 0.5, 0.9], tmp_path / "c.csv")
    code = f"""
import contextlib, io, metadist.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert metadist.cli.main({argv!r}) == 0
"""
    assert _loaded(code, tmp_path) == sorted(CLI + extra)


def test_benchmark_setup_loads_the_moments_alone(tmp_path):
    # The benchmark's set-up child: import the package and the CLI, then one
    # moment_sequence call.
    assert _loaded("import run\nexec(run.SETUP_CODE)", tmp_path) == CLI
