"""The four benchmark workloads: seeded inputs, one timed call, and checks.

Each workload turns an operation index into inputs (``prepare``, untimed),
runs one closed-loop operation (``run``, timed), checks the output
(``check``, untimed, returns failure strings) and says how much work the
operation did (``work``). Inputs depend only on the benchmark seed and the
operation index.

reference/<workload>.csv holds the sweep.csv of operation 0 at the default
seed; at that seed operation 0 must reproduce it within 1e-12 relative.
"""

import contextlib
import csv
import io
import math
import os
import re
import shutil

import numpy as np

from cipm import cli, simulator, solver

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
DEFAULT_SEED = 0


def op_seed(seed, index):
    """Independent 32-bit seed for operation ``index`` of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def cli_call(argv):
    """Run ``cipm.cli.main`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


ORACLE_MAX_ITER = 300_000    # oracles.qp_oracle's iteration cap


def kkt_failures(rows, rhs, is_eq, x, tol=1e-8):
    """KKT certificate for min ||u||^2 s.t. equality rows, rows u >= rhs.

    u = [Re x; Im x] is optimal when it is feasible and 2u = rows_A^T nu on
    the equality and binding rows A, with nu >= 0 on the binding inequalities.
    """
    u = np.concatenate([x.real, x.imag])
    scale = 1.0 + float(np.max(np.abs(rhs)))
    slack = rows @ u - rhs
    viol = max(float(np.max(np.abs(slack[is_eq]), initial=0.0)),
               float(np.max(-slack[~is_eq], initial=0.0)))
    if viol > 1e-9 * scale:
        return [f"KKT: constraint violation {viol:.2e}"]
    active = is_eq | (slack <= 1e-9 * scale)
    nu = np.linalg.lstsq(rows[active].T, 2.0 * u, rcond=None)[0]
    resid = float(np.linalg.norm(rows[active].T @ nu - 2.0 * u))
    fails = []
    if resid > tol * (1.0 + float(np.linalg.norm(u))):
        fails.append(f"KKT: stationarity residual {resid:.2e}")
    worst = float(np.min(nu[~is_eq[active]], initial=0.0))
    if worst < -tol * max(1.0, float(np.max(np.abs(nu)))):
        fails.append(f"KKT: negative inequality multiplier {worst:.2e}")
    return fails


class SlotStream:
    """Real-time transmitter: one make_problem + solve_cipm per slot.

    4x4 16QAM at 17 dB, relaxed; a fresh channel from ``draw_channel`` every
    100 slots; no combination cache and no batching.
    """

    name = "slot_stream"
    slots_per_frame = 100
    oracle_every = 1000       # slots between checks against the QP oracle

    def __init__(self, seed, workdir):
        self.cfg = simulator.FrameConfig(n_antennas=4, k_users=4,
                                         modulations="16qam", zeta_db=17.0,
                                         mode="relaxed", seed=seed)
        self.seed = seed
        self.specs = self.cfg.constellations()
        self.targets = self.cfg.targets()
        self.root = np.sqrt(self.targets.zeta) * self.targets.sigma_z
        self._frame = (None, None, None)

    def prepare(self, index):
        f = index // self.slots_per_frame
        if self._frame[0] != f:
            h = simulator.draw_channel(self.cfg, f).entries
            rng = np.random.default_rng([self.seed, f, 1])
            symbols = rng.integers(0, 16, size=(self.slots_per_frame, 4))
            self._frame = (f, h, symbols)
        _, h, symbols = self._frame
        return h, symbols[index % self.slots_per_frame]

    def run(self, inputs):
        h, symbols = inputs
        prob = solver.make_problem(h, self.specs, symbols, self.targets, "relaxed")
        return solver.solve_cipm(prob)

    def check(self, index, inputs, output):
        import oracles  # test-suite reference, imported after set-up is timed
        h, symbols = inputs
        sig, _ = output
        fails = []
        received = (h @ sig.x) / self.root
        for j, spec in enumerate(self.specs):
            got = int(oracles.nearest_point_oracle(spec, received[j:j + 1])[0])
            if got != symbols[j]:
                fails.append(f"noiseless detection: user {j + 1} sent "
                             f"{symbols[j]}, detected {got}")
        if index % self.oracle_every == 0:
            _, p_ref, iters = oracles.solve_reference(
                h, self.specs, symbols, self.targets.zeta,
                self.targets.sigma_z, "relaxed")
            rel = abs(sig.power - p_ref) / p_ref
            if iters >= ORACLE_MAX_ITER:
                # the first-order oracle stalls on ill-conditioned channels
                # (cond(h) in the hundreds); certify optimality directly
                fails += kkt_failures(*oracles.embed_constraints(
                    h, self.specs, symbols, self.targets.zeta,
                    self.targets.sigma_z, "relaxed"), sig.x)
            elif rel > 1e-6:
                fails.append(f"power {sig.power!r} vs oracle {p_ref!r} "
                             f"(rel {rel:.2e} > 1e-6)")
        return fails

    def work(self, inputs, output):
        return 1


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


def _close(a, b, rel=1e-12):
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return abs(x - y) <= rel * max(abs(x), abs(y))


class Sweep:
    """One ``cipm sweep`` call through ``cipm.cli.main`` per operation."""

    frames = 1                # frames per (grid value, precoder)

    def __init__(self, name, argv, grid, precoders, seed, workdir):
        self.name = name
        self.grid = grid
        self.precoders = precoders
        self.seed = seed
        self.out = os.path.join(workdir, name)
        self.argv = argv + ["--grid", ",".join(str(g) for g in grid),
                            "--precoders", ",".join(precoders),
                            "--threads", "1", "--frames", str(self.frames),
                            "--out", self.out]
        os.makedirs(self.out, exist_ok=True)

    def prepare(self, index):
        path = os.path.join(self.out, "sweep.csv")
        if os.path.exists(path):
            os.remove(path)
        return self.argv + ["--seed", str(op_seed(self.seed, index))]

    def run(self, argv):
        return cli_call(argv)

    def check(self, index, argv, output):
        rc, _, err = output
        if rc != 0:
            return [f"exit code {rc}: {err.strip()}"]
        rows = _read_csv(os.path.join(self.out, "sweep.csv"))
        body = rows[1:]
        fails = []
        expect = [(float(g), p) for g in self.grid for p in self.precoders]
        got = [(float(r[0]), r[1]) for r in body]
        if got != expect:
            return [f"rows {got} != expected (grid value, precoder) {expect}"]
        power = {}
        for r in body:
            # value, precoder, dBW, W, K SERs, K goodputs, eta; the header of
            # a size sweep names only the first grid value's K users
            k = (len(r) - 5) // 2
            sers = [float(v) for v in r[4:4 + k]]
            if r[1] == "multicast":
                ok = all(math.isnan(s) for s in sers)
            else:
                ok = all(0.0 <= s <= 1.0 for s in sers)
            if not ok:
                fails.append(f"{r[1]} at {r[0]}: SER {sers} out of range")
            power[(float(r[0]), r[1])] = float(r[2])
        if "multicast" in self.precoders:
            for g in self.grid:
                mc, ci = power[(float(g), "multicast")], power[(float(g), "cipm")]
                if mc > ci + 1e-9 * abs(ci):
                    fails.append(f"multicast {mc!r} dBW above cipm {ci!r} dBW at {g}")
        if self.seed == DEFAULT_SEED and index == 0:
            ref = _read_csv(os.path.join(REFERENCE_DIR, f"{self.name}.csv"))
            same = (len(ref) == len(rows) and all(
                len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
                for a, b in zip(ref, rows)))
            if not same:
                fails.append("CSV differs from the stored reference beyond 1e-12 relative")
        return fails

    def work(self, argv, output):
        return self.frames * len(self.grid) * len(self.precoders)


def sweep_full_load(seed, workdir):
    """4x4-class full-load 16QAM sweep; inputs share little work."""
    return Sweep("sweep_full_load",
                 ["sweep", "--axis", "size", "--modulations", "16qam",
                  "--zeta-db", "17"],
                 grid=(2, 3, 4), precoders=("cipm", "ob"), seed=seed, workdir=workdir)


def sweep_qpsk_bound(seed, workdir):
    """2x2 QPSK SINR sweep with the multicast bound; inputs share much work."""
    return Sweep("sweep_qpsk_bound",
                 ["sweep", "--axis", "sinr", "--modulations", "qpsk",
                  "--restarts", "0"],
                 grid=(4, 8, 12), precoders=("cipm", "ob", "multicast"),
                 seed=seed, workdir=workdir)


_SINR_LINE = re.compile(r"user (\d+): .* -> (\w+) .* SINR ([-0-9.]+) dB")
# criterion 06 window for the empirical backend, per chosen modulation
SINR_WINDOW_DB = {"16qam": (13.0, 1.5), "qpsk": (10.0, 1.5)}


class ModmapPdfcheck:
    """Cold then warm ``modmap --backend empirical`` on one fresh SER cache,
    then ``pdfcheck --constellation 16qam``."""

    name = "modmap_pdfcheck"
    symbols_per_point = 10_000
    pdf_samples = 100_000
    rates = "3.6,1.998"       # criterion 06 targets: 16QAM and QPSK

    def __init__(self, seed, workdir):
        self.seed = seed
        self.out = os.path.join(workdir, self.name)

    def prepare(self, index):
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        s = str(op_seed(self.seed, index))
        modmap = ["modmap", "--backend", "empirical", "--rates", self.rates,
                  "--symbols", str(self.symbols_per_point), "--seed", s,
                  "--out", self.out]
        pdf = ["pdfcheck", "--constellation", "16qam", "--samples",
               str(self.pdf_samples), "--seed", s, "--out", self.out]
        return modmap, pdf

    def run(self, inputs):
        modmap, pdf = inputs
        return cli_call(modmap), cli_call(modmap), cli_call(pdf)

    def check(self, index, inputs, output):
        cold, warm, pdf = output
        fails = [f"{label} exit code {rc}: {err.strip()}"
                 for label, (rc, _, err) in zip(("cold modmap", "warm modmap", "pdfcheck"),
                                                output) if rc != 0]
        if warm[1] != cold[1]:
            fails.append("warm modmap output differs from the cold one")
        if "PASS" not in pdf[1].split():
            fails.append("pdfcheck did not print PASS")
        found = _SINR_LINE.findall(cold[1])
        if len(found) != 2:
            fails.append(f"expected 2 user lines in modmap output, got {len(found)}")
        for user, mod, db in found:
            centre, half = SINR_WINDOW_DB[mod]
            if abs(float(db) - centre) > half:
                fails.append(f"user {user} {mod} SINR {db} dB outside {centre}+-{half}")
        return fails

    def work(self, inputs, output):
        cache = os.path.join(self.out, "ser_cache")
        points = sum(len(_read_csv(os.path.join(cache, f))) - 1
                     for f in os.listdir(cache) if f.endswith("_ser.csv"))
        return points * self.symbols_per_point + self.pdf_samples


WORKLOADS = {
    "slot_stream": SlotStream,
    "sweep_full_load": sweep_full_load,
    "sweep_qpsk_bound": sweep_qpsk_bound,
    "modmap_pdfcheck": ModmapPdfcheck,
}


def warm_up(name, workdir):
    """A reduced operation that touches the workload's code paths once."""
    if name == "slot_stream":
        wl = SlotStream(DEFAULT_SEED + 1, workdir)
        for i in range(10):
            wl.run(wl.prepare(i))
        return
    out = os.path.join(workdir, "warmup")
    shutil.rmtree(out, ignore_errors=True)
    if name == "modmap_pdfcheck":
        cli_call(["modmap", "--backend", "empirical", "--rates", "3.6,1.998",
                  "--symbols", "200", "--out", out])
        cli_call(["pdfcheck", "--samples", "1000", "--out", out])
        return
    wl = WORKLOADS[name](DEFAULT_SEED, workdir)
    cli_call(wl.argv[:wl.argv.index("--grid")]
             + ["--grid", str(wl.grid[0]), "--precoders", ",".join(wl.precoders),
                "--threads", "1", "--frames", "1", "--symbols", "10", "--out", out])
