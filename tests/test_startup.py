"""Run time: ordent runs on numpy's core alone.  It loads no scipy, no
numpy.random and no numpy.polynomial, whatever it runs.

scipy stays a test-only oracle.  A fresh interpreter runs every public entry
point that once imported it (Monte Carlo Beta sampling and what draws
through it, the order-statistic CDF, the Gaussian CDF and the CLI's
``sample``), and the paths that never sample (the KL terms, a ``rate-fit``
sweep and the bound verifiers), and shows which modules each step has
loaded: numpy.random costs ~6 MB resident, numpy.polynomial ~1 MB more.  A
scan of the sources shows that no file of the package imports scipy or
names numpy.random, numpy.polynomial, numpy.linalg or polyfit.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

import ordent
from ordent.distributions import BetaLaw, Gaussian, beta_sample
from ordent.order_stats import OrderStatSpec, order_stat_cdf

SCRIPT = """
import contextlib, io, json, sys

def unwanted():
    return sorted(m for m in sys.modules
                  if any(m == name or m.startswith(name + ".")
                         for name in ("scipy", "numpy.random", "numpy.polynomial")))

loaded = {}
import ordent
loaded["import"] = unwanted()
from ordent.cli import cli_main
with contextlib.redirect_stdout(io.StringIO()):
    cli_main(["entropy", "--n", "1000", "--k", "300"])
loaded["cli entropy"] = unwanted()
for family in ("gaussian", "exponential", "uniform", "cauchy", "f1", "f2"):
    ordent.kl_decompose(ordent.make_parent(family), 1000, 0.3)
loaded["kl_decompose"] = unwanted()
# k = 1 and k = 2: Beta(1, 100) and Beta(2, 99) take the small-parameter density
for p, k in ((0.005, 1), (0.02, 2)):
    assert ordent.kl_decompose(ordent.make_parent("gaussian"), 100, p).k == k
loaded["small ranks"] = unwanted()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli_main(["rate-fit", "--parent", "gaussian()", "--p", "0.5",
                     "--n-grid", "104:1262:5log"]) == 0
loaded["rate-fit"] = unwanted()
ordent.quantile_mse_bound(ordent.make_parent("exponential"), 2000, 0.7)
ordent.k3_bound(ordent.make_parent("exponential"), 2000, 0.5, q=4.0)
ordent.corollary1_check(ordent.make_parent("uniform"), 0.7, 2.0, (1000, 3162, 10000))
ordent.stirling_constant_check(50.0, 51.0, 2.0)
loaded["bound verifiers"] = unwanted()

from ordent.distributions import BetaLaw, Gaussian, beta_sample
from ordent.order_stats import (OrderStatSpec, order_stat_cdf, sample_order_stat,
                                verify_moment_bound)
values = {
    "beta_sample": beta_sample(BetaLaw(30.0, 71.0), 64, seed=11, stream=3).tolist(),
    "order_stat_cdf": order_stat_cdf(Gaussian(), OrderStatSpec(n=100, k=30), X).tolist(),
    "gaussian_cdf": Gaussian().cdf(X).tolist(),
}
loaded["beta_sample and cdf"] = unwanted()
sample_order_stat(Gaussian(), OrderStatSpec(n=100, k=30), 1000, seed=3)
verify_moment_bound(Gaussian(), OrderStatSpec(n=100, k=30), 2.0, 4.0, mc_count=1000, seed=3)
ordent.kl_decompose(ordent.make_parent("exponential"), 200, 0.3, method="monte_carlo", budget=1000)
loaded["monte carlo"] = unwanted()
with contextlib.redirect_stdout(io.StringIO()):
    cli_main(["sample", "--parent", "gaussian()", "--n", "100", "--k", "30", "--count", "1000"])
loaded["cli sample"] = unwanted()
print(json.dumps({"loaded": loaded, "values": values}))
"""

X = [-3.0, -0.5, 0.0, 0.25, 2.0]


def _fresh_run() -> dict:
    src = str(Path(ordent.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", f"X = {X!r}\n{SCRIPT}"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _ulps(got, ref) -> float:
    return float(abs(mp.mpf(got) - ref) / np.spacing(float(ref)))


def _log_relative(got, ref) -> float:
    """The relative error of got in units of eps (1 + |log ref|)."""
    return float(abs(mp.mpf(got) - ref) / ref / (2.0**-52 * (1 + abs(mp.log(ref)))))


def test_no_scipy_at_run_time():
    run = _fresh_run()
    assert run["loaded"] == {step: [] for step in
                             ("import", "cli entropy", "kl_decompose", "small ranks", "rate-fit",
                              "bound verifiers", "beta_sample and cdf", "monte carlo", "cli sample")}
    got = run["values"]
    # the CDFs against 40-digit mpmath: Phi within 4 ulp, and I_F(30, 71) at
    # the float F = Phi(x) that ordent passes within 8 eps (1 + |log I|)
    # relative: its prefactor is exp of a log density, and its lower tail at
    # x = -3 is 2e-61
    with mp.workdps(40):
        for x, phi, cdf in zip(X, got["gaussian_cdf"], got["order_stat_cdf"]):
            assert _ulps(phi, mp.ncdf(x)) <= 4.0
            assert _log_relative(cdf, mp.betainc(30, 71, 0, mp.mpf(phi), regularized=True)) <= 8.0
    # the same values in this process, where scipy may be loaded
    assert beta_sample(BetaLaw(30.0, 71.0), 64, seed=11, stream=3).tolist() == got["beta_sample"]
    assert order_stat_cdf(Gaussian(), OrderStatSpec(n=100, k=30), X).tolist() == got["order_stat_cdf"]
    assert Gaussian().cdf(X).tolist() == got["gaussian_cdf"]


def test_no_source_file_imports_scipy():
    package = Path(ordent.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n == "scipy" or n.startswith("scipy.") for n in names), \
                f"{path.name}:{node.lineno} imports scipy"


def test_no_source_file_names_numpy_random_polynomial_or_linalg():
    package = Path(ordent.__file__).resolve().parent
    banned = re.compile(r"\b(?:np|numpy)\.(?:random|polynomial|linalg)\b|polyfit")
    for path in sorted(package.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            assert not banned.search(line), f"{path.name}:{lineno}: {line.strip()}"
