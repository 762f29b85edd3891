"""The three benchmark workloads: set-up, one timed iteration, output checks.

Each workload is a closed loop with one caller: an iteration starts only
after the previous one has finished and been checked. Inputs derive from
the workload seed alone; the library only sees the generated inputs.

``reproduce``   the shipped experiment through ``agcdiag.cli.main``, the
                same calls as ``scripts/reproduce_experiments.py``.
``design-d6``   one certified robust design at d_n=6: the large-tableau
                LP case, no CLI, simulation or CSV.
``montecarlo``  a batch of seeds of the worst-case stealthy scenario plus
                one clean run per seed, each trace written and read back
                as CSV; the design is solved once in set-up, so no LP runs
                in the timed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from time import perf_counter

import numpy as np

GAMMA_EXPECTED = 3.0
GAMMA_TOL = 1e-9
INDEX_EXPECTED = (1, 1)
DECOUPLE_TOL = 1e-8
# relative slack on ||Nbar||_inf <= eta and payoff >= gamma: the solver
# lands on the bound up to rounding (10.000000000000265 at d_n=3)
REL_TOL = 1e-9


class Ops:
    """Counts operations attempted (CLI steps, LP solves, seed runs,
    output checks) and remembers which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def digest_files(root, paths) -> str:
    """One sha256 over the names (relative to ``root``) and bytes of files."""
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def model_chain(mods, d_n: int, with_basis: bool):
    """Config -> AGC model -> ZOH -> DAE -> Hbar (-> null basis)."""
    cfg = mods.config.default_config()
    cfg["design"]["d_n"] = d_n
    model = mods.config.build_model(cfg)
    disc = mods.config.build_discrete(cfg, model)
    dae = mods.dae.build_dae(disc)
    params = mods.config.design_params(cfg)
    space = mods.config.build_attack_space(cfg, model)
    chain = {
        "disc": disc, "dae": dae, "params": params,
        "space": space, "ffb": mods.dae.attack_gain(dae, space.basis),
        "hbar": mods.dae.stack_hbar(dae, d_n),
    }
    if with_basis:
        chain["basis"] = mods.design.feasible_basis(
            chain["hbar"], params["eta"], d_n, params["rank_tol"])
    return chain


def check_certificate(ops: Ops, what: str, gamma, index, nbar, hbar, eta,
                      payoff) -> None:
    """The certified design's invariants, one counted check each."""
    nbar = np.asarray(nbar, dtype=float)
    ops.check(f"{what} gamma", abs(gamma - GAMMA_EXPECTED) <= GAMMA_TOL,
              f"{gamma!r} != {GAMMA_EXPECTED}")
    ops.check(f"{what} index", tuple(index) == INDEX_EXPECTED,
              f"{index} != {INDEX_EXPECTED}")
    decouple = float(np.abs(nbar @ hbar).max())
    ops.check(f"{what} ||Nbar Hbar||", decouple <= DECOUPLE_TOL,
              f"{decouple:.3g} > {DECOUPLE_TOL}")
    norm = float(np.abs(nbar).max())
    ops.check(f"{what} ||Nbar||", norm <= eta * (1 + REL_TOL),
              f"{norm!r} > eta {eta}")
    ops.check(f"{what} payoff", payoff >= gamma - REL_TOL * max(1.0, gamma),
              f"worst-case payoff {payoff!r} < gamma {gamma!r}")


class Reproduce:
    name = "reproduce"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        horizon, onset = (10.0, 5.0) if tiny else (60.0, 30.0)
        self.common = ["--set", f"scenario.horizon_s={horizon}",
                       "--set", f"scenario.onset_s={onset}",
                       "--set", f"scenario.seed={seed}"]
        self.workdir = workdir

    def setup(self, mods):
        return model_chain(mods, 3, with_basis=True)

    def _cli(self, mods, ops, label, args, sink):
        with contextlib.redirect_stdout(sink):
            code = mods.cli.main(args)
        ops.check(f"cli {label}", code == 0, f"exit code {code}")

    def run(self, mods, state, ops):
        out = tempfile.mkdtemp(prefix="reproduce-", dir=self.workdir)
        sink = io.StringIO()
        os.environ["AGCDIAG_OUTDIR"] = out
        self._cli(mods, ops, "design", ["design"], sink)
        self._cli(mods, ops, "attack", ["attack"], sink)
        with open(os.path.join(out, "attack.json")) as handle:
            basic_f = list(json.load(handle)["f"])
        # zero the second vulnerable channel, as the reproduce script does
        basic_f[1] = 0.0
        s1 = os.path.join(out, "scenario1_basic")
        os.environ["AGCDIAG_OUTDIR"] = s1
        self._cli(mods, ops, "scenario 1 simulate",
                  ["--set", "attack.mode=raw",
                   "--set", f"attack.raw_f={json.dumps(basic_f)}",
                   "--set", "scenario.process_noise=null",
                   "--set", "scenario.measurement_noise=null",
                   *self.common, "simulate"], sink)
        self._cli(mods, ops, "scenario 1 report",
                  ["report", "--trace", os.path.join(s1, "trace.csv")], sink)
        s2 = os.path.join(out, "scenario2_stealthy")
        os.environ["AGCDIAG_OUTDIR"] = s2
        self._cli(mods, ops, "scenario 2 simulate",
                  ["--set", "attack.mode=worst-case", *self.common,
                   "simulate"], sink)
        self._cli(mods, ops, "scenario 2 report",
                  ["report", "--trace", os.path.join(s2, "trace.csv")], sink)
        os.environ["AGCDIAG_OUTDIR"] = os.path.join(out, "pole_sweep")
        self._cli(mods, ops, "pole sweep",
                  ["--set", "attack.mode=worst-case", *self.common,
                   "sweep-pole"], sink)
        return out

    def check(self, mods, state, out, ops):
        """Certificate checks; returns the digest of the trace/JSON outputs."""
        with open(os.path.join(out, "filter.json")) as handle:
            filt = json.load(handle)
        with open(os.path.join(out, "attack.json")) as handle:
            attack = json.load(handle)
        check_certificate(ops, "reproduce", filt["gamma"], filt["index"],
                          filt["nbar"], state["hbar"], filt["eta"],
                          attack["payoff"])
        s2 = os.path.join(out, "scenario2_stealthy")
        trace = mods.simulate.read_trace_csv(os.path.join(s2, "trace.csv"))
        panel = mods.simulate.read_trace_csv(
            os.path.join(s2, "panel_dynamic_residual.csv"))
        ops.check("reproduce CSV round-trip",
                  np.array_equal(trace["t"], panel["t"])
                  and np.array_equal(trace["r_D"], panel["r_D"]),
                  "report panel differs from the trace it was read from")
        # design_report.txt carries wall times, so it is left out
        outputs = sorted(
            os.path.join(root, f) for root, _, files in os.walk(out)
            for f in files if f.endswith((".csv", ".json")))
        digest = digest_files(out, outputs)
        shutil.rmtree(out)
        return digest


class DesignD6:
    name = "design-d6"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        # the design is deterministic: the seed selects nothing here
        self.d_n = 3 if tiny else 6

    def setup(self, mods):
        return model_chain(mods, self.d_n, with_basis=False)

    def run(self, mods, state, ops):
        p, space = state["params"], state["space"]
        basis = mods.design.feasible_basis(state["hbar"], p["eta"], self.d_n,
                                           p["rank_tol"])
        design = mods.design.design_robust(basis, state["ffb"], space.a,
                                           space.b, p["pole"])
        alpha, payoff = mods.design.worst_case_alpha(
            design.nbar, state["ffb"], self.d_n, space.a, space.b)
        return design, alpha, payoff

    def check(self, mods, state, out, ops):
        design, alpha, payoff = out
        for row in design.table:
            ops.check(f"LP ({row.block}, {row.sign:+d})",
                      row.status == "optimal", row.status)
        check_certificate(ops, f"d_n={self.d_n}", design.gamma, design.index,
                          design.nbar, state["hbar"], state["params"]["eta"],
                          payoff)
        blob = json.dumps({"gamma": design.gamma, "index": design.index,
                           "nbar": design.nbar.tolist(),
                           "alpha": np.asarray(alpha).tolist(),
                           "payoff": payoff})
        return hashlib.sha256(blob.encode()).hexdigest()


class MonteCarlo:
    name = "montecarlo"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        n_seeds = 2 if tiny else 8
        self.seeds = [int(s) for s in np.random.default_rng(seed).integers(
            0, 2 ** 31 - 1, n_seeds)]
        self.workdir = workdir
        self._first_checked = False

    def setup(self, mods):
        state = model_chain(mods, 3, with_basis=True)
        p, space, ffb = state["params"], state["space"], state["ffb"]
        design = mods.design.design_robust(state["basis"], ffb, space.a,
                                           space.b, p["pole"])
        alpha, payoff = mods.design.worst_case_alpha(design.nbar, ffb, 3,
                                                     space.a, space.b)
        state.update(design=design, payoff=payoff)
        f_vec = mods.attacks.synthesize_attack(space, alpha)
        state["filter"] = mods.residual.realize_filter(design, state["dae"].l)
        runs = []
        for j, seed in enumerate(self.seeds):
            cfg = mods.config.default_config()
            cfg["scenario"]["seed"] = seed
            for kind, f in (("attacked", f_vec), ("clean", None)):
                scenario = mods.config.build_scenario(cfg, state["disc"], f)
                runs.append((kind, scenario,
                             os.path.join(self.workdir, f"{kind}_{j}.csv")))
        state["runs"] = runs
        return state

    def run(self, mods, state, ops):
        sim_s, steps, results = 0.0, 0, []
        for kind, scenario, path in state["runs"]:
            t0 = perf_counter()
            trace = mods.simulate.simulate(state["disc"], scenario,
                                           state["filter"])
            sim_s += perf_counter() - t0
            steps += trace.n_records
            mods.simulate.write_trace_csv(trace, path)
            cols = mods.simulate.read_trace_csv(path)
            ops.check("seed run", True)
            results.append((kind, scenario, path, trace, cols))
        return results, sim_s, steps

    @staticmethod
    def steps_per_s(out) -> float:
        """Closed-loop samples per second of ``simulate``, both residuals
        included, for one iteration's output."""
        _, sim_s, steps = out
        return steps / sim_s

    def check(self, mods, state, out, ops):
        out, _, _ = out
        design = state["design"]
        if not self._first_checked:
            # the design is solved once per set-up, so it is checked once
            check_certificate(ops, "montecarlo design", design.gamma,
                              design.index, design.nbar, state["hbar"],
                              state["params"]["eta"], state["payoff"])
            self._first_checked = True
            for _, _, path, trace, cols in out:
                ops.check("montecarlo CSV round-trip",
                          _round_trip_exact(trace, cols), path)
        attacked, clean = [], []
        for kind, scenario, _, _, cols in out:
            r_d = np.abs(cols["r_D"])
            if kind == "attacked":
                attacked.append(r_d[cols["t"] > scenario.onset_s].max())
            else:
                clean.append(r_d.max())
        ops.check("montecarlo detection gap", min(attacked) > max(clean),
                  f"smallest attacked peak {min(attacked):.4g} <= largest "
                  f"clean peak {max(clean):.4g}")
        return digest_files(self.workdir, [path for _, _, path, _, _ in out])


def _round_trip_exact(trace, cols) -> bool:
    """Columns read back equal the trace rounded to the written digits."""
    def written(values):
        return np.array([float(format(v, ".12g")) for v in values])

    expect = {"k": np.arange(trace.n_records, dtype=float),
              "t": written(trace.t), "rS_inf": written(trace.rs_inf),
              "r_D": written(trace.r_d)}
    for i in range(trace.d.shape[1]):
        expect[f"d_{i + 1}"] = written(trace.d[:, i])
    for i in range(trace.f.shape[1]):
        expect[f"f_{i + 1}"] = written(trace.f[:, i])
    return (set(expect) == set(cols)
            and all(np.array_equal(expect[k], cols[k]) for k in expect))


WORKLOADS = {w.name: w for w in (Reproduce, DesignD6, MonteCarlo)}
