"""Start-up: ordent and its quadrature path load no scipy.

scipy is imported only by the functions that need it (Monte Carlo Beta
sampling, the order-statistic CDF and the Gaussian CDF); a fresh interpreter
shows which modules a run has loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import betainc, betaincinv, ndtr

import ordent
from ordent.distributions import BetaLaw, Gaussian, beta_sample, random_stream
from ordent.order_stats import OrderStatSpec, order_stat_cdf

SCRIPT = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import ordent
loaded["import"] = scipy_modules()
from ordent.cli import cli_main
with contextlib.redirect_stdout(io.StringIO()):
    cli_main(["entropy", "--n", "1000", "--k", "300"])
loaded["cli entropy"] = scipy_modules()
for family in ("gaussian", "exponential", "uniform", "cauchy", "f2"):
    ordent.kl_decompose(ordent.make_parent(family), 1000, 0.3)
loaded["kl_decompose"] = scipy_modules()
# k = 1 and k = 2: Beta(1, 100) and Beta(2, 99) take the small-parameter density
for p, k in ((0.005, 1), (0.02, 2)):
    assert ordent.kl_decompose(ordent.make_parent("gaussian"), 100, p).k == k
loaded["small ranks"] = scipy_modules()

from ordent.distributions import BetaLaw, Gaussian, beta_sample
from ordent.order_stats import OrderStatSpec, order_stat_cdf
values = {
    "beta_sample": beta_sample(BetaLaw(30.0, 71.0), 64, seed=11, stream=3).tolist(),
    "order_stat_cdf": order_stat_cdf(Gaussian(), OrderStatSpec(n=100, k=30), X).tolist(),
    "gaussian_cdf": Gaussian().cdf(X).tolist(),
}
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


def test_no_scipy_until_a_function_needs_it():
    run = _fresh_run()
    assert run["loaded"] == {step: [] for step in
                             ("import", "cli entropy", "kl_decompose", "small ranks")}
    # the lazily imported functions give the values that scipy gives directly
    got = run["values"]
    u = random_stream(11, 3).random(64)
    ref = betaincinv(30.0, 71.0, u)  # beta_sample's accuracy contract
    assert np.all(np.abs(np.array(got["beta_sample"]) - ref)
                  <= 1e-12 * np.minimum(ref, 1.0 - ref) + 2.0**-52)
    assert got["order_stat_cdf"] == betainc(30.0, 71.0, ndtr(np.array(X))).tolist()
    assert got["gaussian_cdf"] == ndtr(np.array(X)).tolist()
    # and the same in this process, where scipy is already loaded
    assert beta_sample(BetaLaw(30.0, 71.0), 64, seed=11, stream=3).tolist() == got["beta_sample"]
    assert order_stat_cdf(Gaussian(), OrderStatSpec(n=100, k=30), X).tolist() == got["order_stat_cdf"]
    assert Gaussian().cdf(X).tolist() == got["gaussian_cdf"]
