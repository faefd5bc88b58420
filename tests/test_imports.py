"""Every path runs on numpy and the stdlib alone, and each subcommand
loads only the package layers it uses.

No module of the package imports scipy, which costs about a third of a
second to import, several times the numerical work of a typical CLI
call; the tests keep it out of each subcommand.  Each case runs in a
fresh interpreter, since the test process itself has scipy loaded."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sqzstat

SRC = str(Path(sqzstat.__file__).resolve().parent.parent)

RUN_MAIN = """
import json, sys
from sqzstat.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "logging": "logging" in sys.modules}))
"""


def fresh_python(script, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


TSALLIS = ["--squeeze", "tsallis", "--q", "1.5"]
MODEL = ["--model", "lattice_gas", "--param", "sites=40", "--y", "E=0.7", "--y", "N=0.2"]

CASES = {
    "compute": ["compute", *MODEL, "--rows", "rows.csv"],
    "fluct": ["fluct", *MODEL],
    "sweep": ["sweep", *MODEL, "--axis", "N", "--range", "0.1:0.5", "--steps", "3"],
    "kinetics": ["kinetics", "--lattice-radius", "2", "--steps", "20", "--trace-every", "10"],
}


def _write_infer_inputs(tmp_path):
    x = np.linspace(0.0, 5.0, 41)
    (tmp_path / "ratios.csv").write_text(
        "ln_g,ratio\n" + "".join(f"{v:.17g},{math.exp(-0.5 * v):.17g}\n" for v in x)
    )
    b = np.linspace(0.5, 1.5, 101)
    (tmp_path / "density.csv").write_text(
        "beta,f\n" + "".join(f"{v:.17g},1\n" for v in b)
    )


# the CLI reads no environment variable: SQZSTAT_LOG=debug, say, loads no logging
@pytest.mark.parametrize("family", ["identity", "tsallis"])
@pytest.mark.parametrize("command", sorted(CASES))
def test_builtin_family_paths_do_not_import_scipy(command, family, tmp_path, monkeypatch):
    monkeypatch.setenv("SQZSTAT_LOG", "debug")
    args = CASES[command] + (TSALLIS if family == "tsallis" else ["--squeeze", "identity"])
    out = fresh_python(RUN_MAIN, *args, cwd=tmp_path)
    assert out == {"code": 0, "scipy": [], "logging": False}


@pytest.mark.parametrize("mode", [
    ["--data", "ratios.csv", "--reconstruct", "rec.csv"],
    ["--density", "density.csv", "--energy", "0.5"],
])
def test_infer_does_not_import_scipy(mode, tmp_path):
    _write_infer_inputs(tmp_path)
    out = fresh_python(RUN_MAIN, "infer", *mode, cwd=tmp_path)
    assert out == {"code": 0, "scipy": [], "logging": False}


RUN_MAIN_LAYERS = """
import json, sys
from sqzstat.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "layers": sorted(m for m in sys.modules if m.startswith("sqzstat."))}))
"""

# subcommand -> (argv, layers it must not load)
UNUSED_LAYERS = {
    "compute": (CASES["compute"], {"sqzstat.kinetics", "sqzstat.inference", "sqzstat.fluctuation"}),
    "sweep": (CASES["sweep"], {"sqzstat.kinetics", "sqzstat.inference", "sqzstat.fluctuation"}),
    "kinetics": (CASES["kinetics"], {"sqzstat.engine", "sqzstat.models"}),
    "infer": (["infer", "--data", "ratios.csv", "--reconstruct", "rec.csv", "--density", "density.csv"],
              {"sqzstat.engine", "sqzstat.kinetics"}),
}


@pytest.mark.parametrize("command", sorted(UNUSED_LAYERS))
def test_subcommand_loads_only_its_layers(command, tmp_path):
    argv, unused = UNUSED_LAYERS[command]
    _write_infer_inputs(tmp_path)
    out = fresh_python(RUN_MAIN_LAYERS, *argv, cwd=tmp_path)
    assert out["code"] == 0
    assert not unused & set(out["layers"])


def test_star_import_binds_every_public_name():
    script = """
import importlib, json
import sqzstat
namespace = {}
exec("from sqzstat import *", namespace)
missing = [n for n in sqzstat.__all__ if n not in namespace]
# each name is its defining module's object, and dir() lists it
foreign = [n for n in sqzstat.__all__
           if namespace[n] is not getattr(importlib.import_module(namespace[n].__module__), n)]
print(json.dumps({"missing": missing, "foreign": foreign, "n": len(sqzstat.__all__),
                  "undir": sorted(set(sqzstat.__all__) - set(dir(sqzstat)))}))
"""
    out = fresh_python(script)
    assert out == {"missing": [], "foreign": [], "n": len(sqzstat.__all__), "undir": []}

