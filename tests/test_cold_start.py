"""What a fresh process loads: scipy only once a shift is applied, and
concurrent.futures only once a helper thread is started.

`import haarlab` and the commands that apply no shift (norm, measure gen,
measure inspect) load no scipy module and no concurrent.futures module.
The first shift application imports scipy.sparse for its product, and
nothing loads scipy.linalg: the dense SVD oracle runs on numpy.  Each case
runs in a new interpreter, because the test process itself has long since
imported both.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from haarlab import io as hio
from haarlab.cli import build_parser
from haarlab.martingale import StepFunction
from haarlab.measure import random_doubling

SRC = Path(__file__).resolve().parents[1] / "src"


def deferred_modules_after(code: str) -> list[str]:
    """The scipy and concurrent.futures modules loaded once `code` has run
    in a fresh interpreter that imports haarlab from this checkout."""
    script = textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        roots = ("scipy", "concurrent")
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in roots)))
    """)
    env = os.environ | {"PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["haarlab", "haarlab.cli"])
def test_import_loads_no_scipy(module):
    assert deferred_modules_after(f"import {module}") == []


@pytest.fixture
def files(tmp_path):
    mu = random_doubling(6, seed=5)
    values = np.random.default_rng(5).standard_normal(64)
    # mean zero, so that atb-upper can bound it too
    f = StepFunction(6, values - np.sum(values * mu.leaf_masses) / mu.total_mass)
    hio.save_measure(mu, tmp_path / "mu.json")
    hio.save_function(f, tmp_path / "f.json")
    return tmp_path


def _norm_choices() -> list[str]:
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return next(a for a in sub.choices["norm"]._actions if a.dest == "norm").choices


def _commands(files: Path) -> dict[str, list[list[str]]]:
    mu, f = str(files / "mu.json"), str(files / "f.json")
    return {
        "norm": [
            ["norm", "--function", f, "--measure", mu, "--norm", norm,
             "--out", str(files / f"{norm}.json")]
            for norm in _norm_choices()
        ],
        "measure gen": [
            ["measure", "gen", "--kind", "geometric_unbalanced", "--depth", "8",
             "--out", str(files / "gen.json")]
        ],
        "measure inspect": [["measure", "inspect", mu]],
    }


@pytest.mark.parametrize("command", ["norm", "measure gen", "measure inspect"])
def test_commands_without_shifts_load_no_scipy(files, command):
    argvs = _commands(files)[command]
    code = f"""
        from haarlab.cli import main
        for argv in {argvs!r}:
            assert main(argv) == 0, argv
    """
    assert deferred_modules_after(code) == []


def test_apply_loads_the_sparse_product_only():
    loaded = deferred_modules_after("""
        import numpy as np
        from haarlab import StepFunction, apply_shift, petermichl, random_doubling, svd_opnorm
        mu = random_doubling(5, seed=1)
        apply_shift(petermichl(5), StepFunction(5, np.arange(32.0)), mu)
        svd_opnorm(petermichl(5), mu)
    """)
    assert "scipy.sparse" in loaded
    assert not any(m.startswith("scipy.linalg") for m in loaded)
