"""Every built-in-family path runs on numpy and the stdlib alone, and
each subcommand loads only the package layers it uses.

scipy costs about a third of a second to import, several times the
numerical work of a typical CLI call, so it is imported only by the
custom-family kinetic entropy.  Each case runs in a fresh interpreter,
since the test process itself has scipy loaded."""

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
print(json.dumps({"code": code, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def fresh_python(script, *args, cwd=None, log=None):
    env = {k: v for k, v in os.environ.items() if k != "SQZSTAT_LOG"}
    if log is not None:
        env["SQZSTAT_LOG"] = log
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


@pytest.mark.parametrize("family", ["identity", "tsallis"])
@pytest.mark.parametrize("command", sorted(CASES))
def test_builtin_family_paths_do_not_import_scipy(command, family, tmp_path):
    args = CASES[command] + (TSALLIS if family == "tsallis" else ["--squeeze", "identity"])
    out = fresh_python(RUN_MAIN, *args, cwd=tmp_path)
    assert out == {"code": 0, "scipy": []}


@pytest.mark.parametrize("mode", [
    ["--data", "ratios.csv", "--reconstruct", "rec.csv"],
    ["--density", "density.csv", "--energy", "0.5"],
])
def test_infer_does_not_import_scipy(mode, tmp_path):
    _write_infer_inputs(tmp_path)
    out = fresh_python(RUN_MAIN, "infer", *mode, cwd=tmp_path)
    assert out == {"code": 0, "scipy": []}


def test_custom_family_entropy_imports_quadrature_on_demand():
    # h(g) = g**2: ln h(F) = 2 ln F, integrated from the 1e-12 floor
    script = """
import json, math, sys
import numpy as np
from sqzstat import SqueezeFamily
from sqzstat.kinetics import KineticState, entropy_functional
fam = SqueezeFamily.custom(ln_h=lambda v: 2.0 * v, ln_H=lambda v: 0.5 * v,
                           slope=lambda v: 2.0 * math.exp(v))
before = "scipy" in sys.modules
s = entropy_functional(KineticState(F=np.array([0.0, 0.5, 2.0])), fam)
print(json.dumps({"S": s, "before": before, "after": "scipy.integrate" in sys.modules}))
"""
    out = fresh_python(script)
    a = 1e-12

    def antiderivative(x):
        return 2.0 * (x * math.log(x) - x)

    expected = -sum(antiderivative(f) - antiderivative(a) for f in (0.5, 2.0))
    assert out["before"] is False and out["after"] is True
    assert out["S"] == pytest.approx(expected, rel=1e-9)


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


RUN_MAIN_LOGGING = """
import json, sys
from sqzstat.cli import main
code = main(sys.argv[1:])
logging = sys.modules.get("logging")
print(json.dumps({"code": code, "root_level": logging and logging.getLogger().level}))
"""


@pytest.mark.parametrize("log, root_level", [(None, None), ("quiet", None), ("info", 20), ("debug", 10)])
def test_logging_loads_only_for_a_verbose_setting(log, root_level, tmp_path):
    out = fresh_python(RUN_MAIN_LOGGING, *CASES["compute"], cwd=tmp_path, log=log)
    assert out == {"code": 0, "root_level": root_level}
