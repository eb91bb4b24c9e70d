"""The benchmark's workloads: inputs drawn from a seed, calls into bswkb, checks.

Each workload is a list of cases.  A case is one call into bswkb's public API
(``cli.main`` in-process, or ``oracle.oracle_spectrum``) that returns the
number of operations that failed and the output the checks read.  The seed
draws symbol coefficients from narrow ranges: every draw keeps the checks
valid and keeps the work per round nearly constant.

Checks compare against ``ref`` (closed forms and a sinc-DVR diagonalizer),
which does not import bswkb, and run outside the timed interval.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import bswkb
import bswkb.cli
import bswkb.oracle
import ref

H = 0.1


@dataclass
class Case:
    ops: int                       # operations attempted per call
    run: Callable[[], tuple]       # -> (failed operations, output)


@dataclass
class Workload:
    cases: list
    check: Callable[[list], list]  # outputs of one round -> failure messages


def _cli_case(config: Path, orders: str, n_hi: int) -> Case:
    """`bswkb spectrum` in-process; output is {order: levels} or None on failure."""
    argv = ["spectrum", "--config", str(config), "--order", orders,
            "--n-range", f"0..{n_hi}", "--h", str(H)]
    n_orders = len(orders.split(","))

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = bswkb.cli.main(argv)
        if code != 0:
            return n_orders * (n_hi + 1), None
        lines = [ln for ln in buf.getvalue().splitlines() if not ln.startswith("#")]
        columns = lines[0].split(",")
        rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
        levels = {int(col[len("E_order"):]): rows[:, j]
                  for j, col in enumerate(columns) if col.startswith("E_order")}
        return 0, levels

    return Case(n_orders * (n_hi + 1), run)


def _config(workdir: Path, name: str, doc: dict) -> Path:
    """Write a symbol config (JSON is YAML) and build its model once."""
    path = workdir / f"{name}.yaml"
    path.write_text(json.dumps(doc))
    bswkb.parse_symbol_config(path.read_text())
    return path


def _increasing(label: str, levels) -> list:
    if np.all(np.diff(levels) > 0.0):
        return []
    return [f"{label}: levels not strictly increasing"]


def bs_order2(seed: int, workdir: Path) -> Workload:
    """Reference CLI case: quartic well, orders 0 and 2, levels 0..4."""
    rng = random.Random(seed)
    c, c2 = rng.uniform(0.99, 1.01), rng.uniform(0.49, 0.51)
    cfg = _config(workdir, "bs-order2", {"family": "quartic-well",
                                         "p1": [[c, 1, 0]], "p2": [[c2, 0, 0]]})
    n_hi = 4

    def check(outputs):
        (levels,) = outputs
        if levels is None:
            return []
        fails = []
        exact = ref.quartic_levels(H, n_hi + 1, c, c2)
        closed = np.array([ref.quartic_level(n, H) for n in range(n_hi + 1)])
        err0 = np.abs(levels[0] - exact)
        err2 = np.abs(levels[2] - exact)
        if np.abs(levels[0] - closed).max() > 1e-10:
            fails.append("order 0 off the closed form by "
                         f"{np.abs(levels[0] - closed).max():.2e}")
        if not np.all(err2 < err0):
            fails.append(f"order 2 not closer than order 0: {err2} vs {err0}")
        if statistics.median(err2) > H ** 3:
            fails.append(f"median order-2 error {statistics.median(err2):.2e} > h^3")
        for order in (0, 2):
            fails += _increasing(f"order {order}", levels[order])
        return fails

    return Workload([_cli_case(cfg, "0,2", n_hi)], check)


def bs_order01(seed: int, workdir: Path) -> Workload:
    """Orders 0 and 1 on three wells, levels 0..7; closed forms at every level."""
    rng = random.Random(seed)
    c = rng.uniform(0.99, 1.01)
    morse = {"A": rng.uniform(3.96, 4.04), "a": rng.uniform(0.99, 1.01)}
    pt = {"A": rng.uniform(3.96, 4.04), "a": rng.uniform(0.99, 1.01)}
    n_hi = 7
    ns = range(n_hi + 1)
    wells = [
        ("quartic", {"family": "quartic-well", "p1": [[c, 1, 0]]},
         [ref.quartic_level(n, H) for n in ns]),
        ("morse", {"family": "morse", "morse": morse},
         [ref.exp_well_level(n, H, morse["A"], morse["a"]) for n in ns]),
        ("poschl-teller", {"family": "poschl-teller", "poschl-teller": pt},
         [ref.exp_well_level(n, H, pt["A"], pt["a"]) for n in ns]),
    ]
    cases = [_cli_case(_config(workdir, f"bs-order01-{name}", doc), "0,1", n_hi)
             for name, doc, _ in wells]

    def check(outputs):
        fails = []
        for (name, _, closed), levels in zip(wells, outputs):
            if levels is None:
                continue
            for order in (0, 1):
                err = float(np.abs(levels[order] - closed).max())
                if err > 1e-10:
                    fails.append(f"{name} order {order}: off the closed form by {err:.2e}")
                fails += _increasing(f"{name} order {order}", levels[order])
        return fails

    return Workload(cases, check)


def oracle(seed: int, workdir: Path) -> Workload:
    """Grid oracle on a real symmetric and a complex Hermitian quartic case."""
    rng = random.Random(seed)
    c_real, c_cplx = rng.uniform(0.99, 1.01), rng.uniform(0.99, 1.01)
    real = bswkb.make_model("quartic-well", p1=[[c_real, 1, 0]])
    cplx = bswkb.make_model("quartic-well", p1=[[c_cplx, 0, 1]])
    specs = [("real", real, 0.02, 20), ("complex", cplx, H, 10)]

    def case(model, h, m):
        def run():
            try:
                return 0, bswkb.oracle.oracle_spectrum(model, h, m).eigenvalues
            except bswkb.OracleError:
                return 1, None
        return Case(1, run)

    def check(outputs):
        exact = {
            "real": ref.quartic_levels(0.02, 20, c_real),
            # gauge identity: xi^2 + h c xi = (xi + h c / 2)^2 - h^2 c^2 / 4
            "complex": ref.quartic_levels(H, 10) - (H * c_cplx) ** 2 / 4.0,
        }
        fails = []
        for (label, *_), levels in zip(specs, outputs):
            if levels is None:
                continue
            dev = np.abs(levels - exact[label]) / np.maximum(1.0, np.abs(exact[label]))
            if dev.max() > 1e-7:
                fails.append(f"oracle {label}: deviation {dev.max():.2e} > 1e-7")
            fails += _increasing(f"oracle {label}", levels)
        return fails

    return Workload([case(model, h, m) for _, model, h, m in specs], check)


WORKLOADS = {"bs-order2": bs_order2, "bs-order01": bs_order01, "oracle": oracle}


def warm_up():
    """Untimed solves that load scipy's lazily imported parts."""
    harmonic = bswkb.make_model("harmonic")
    bswkb.BSSolver(harmonic, 0.5, 0).quantize(0)
    bswkb.oracle.oracle_spectrum(harmonic, 0.5, 2, domain=(-6.0, 6.0), N=256)
