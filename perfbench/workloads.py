"""The three benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, then
runs whole *rounds* of one fixed operation list, each operation timed
and checked through the :class:`harness.Ledger`.  A round returns the
samples of its four legs (the ``legN_s`` end-to-end metrics; every
workload fills all four, with its own meaning, listed in ``LEGS``) and
the per-layer counters that only the program's own result envelopes
can give: work done inside forked pool workers and process lanes.

Tolerances come from the method, not from stored output; README.md
records where each one comes from.
"""

from __future__ import annotations

import json
import shutil

import numpy as np

from harness import nproc

#: H2/STO-3G total energy at R = 1.4 bohr (Szabo & Ostlund, Table 3.x).
H2_TEXTBOOK_HA = -1.1167
H2_TOL_HA = 1e-4
#: Exact engines (per-quartet in-core oracle, direct, pool) must agree.
EXACT_TOL_HA = 1e-8
#: Density-fitting error bound per atom against the exact energy.
RI_TOL_HA_PER_ATOM = 5e-5
#: |tr(DS) - N| for a converged closed-shell density.
TRACE_TOL = 1e-6
#: |sum of the atomic forces| for an isolated molecule (FD forces).
FORCE_SUM_TOL = 1e-6
#: max |E_tot(t) - E_tot(0)| of the NVE BOMD and MTS trajectories (Ha).
ENERGY_EXCURSION_TOL_HA = 1e-3
#: Standard deviation of the seeded geometry jitter (bohr).
JITTER_BOHR = 0.02


class Workload:
    """Shared lifecycle: ``setup`` once, ``round`` repeatedly,
    ``finish`` for post-run checks, ``close`` always."""

    name = "?"
    LEGS: dict[str, str] = {}

    def __init__(self, seed: int, smoke: bool, work_dir):
        self.seed = int(seed)
        self.smoke = bool(smoke)
        self.work_dir = work_dir
        self.recorder = None        # a spans.SpanRecorder while tracing
        self.setup_extras: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, ledger) -> tuple[dict, dict]:
        raise NotImplementedError

    def finish(self, ledger) -> None:
        pass

    def close(self) -> None:
        pass

    def _round_dir(self, ledger):
        d = self.work_dir / f"round-{ledger.round:04d}"
        d.mkdir(parents=True, exist_ok=True)
        return d


def _jitter(mol, rng):
    return mol.with_coords(mol.coords + rng.normal(scale=JITTER_BOHR,
                                                   size=mol.coords.shape))


def _check_scf(ledger, op, res, mol) -> None:
    if res is None:
        return
    ledger.check(op, res.converged, f"SCF did not converge "
                                    f"({res.niter} iterations)")
    trace = float(np.einsum("pq,qp->", res.D, res.S))
    ledger.close_to(op, trace, float(mol.nelectron), TRACE_TOL, "tr(DS) = N")


# --- scf-engines -------------------------------------------------------------

class ScfEngines(Workload):
    """STO-3G single points on every J/K engine, one geometry each."""

    name = "scf-engines"
    LEGS = {
        "leg1_s": "scf_incore_s: summed wall of the in-core SCFs",
        "leg2_s": "scf_direct_s: summed wall of the direct serial SCFs "
                  "(batched kernel)",
        "leg3_s": "scf_ri_s: summed wall of the RI SCFs",
        "leg4_s": "scf_pool_s: median wall of the HF SCF on the "
                  "nproc-worker process pool (batched kernel)",
    }
    ENGINES = ("incore", "direct", "ri")

    def setup(self) -> None:
        import time

        from repro.basis import build_basis
        from repro.chem import Molecule, builders
        from repro.runtime import ExecutionConfig
        from repro.runtime.pool import ExchangeWorkerPool
        from repro.scf.dft import run_rks

        rng = np.random.default_rng(self.seed)
        bases = ([builders.water()] if self.smoke
                 else [builders.li2o2(), builders.water_cluster(3)])
        self.systems = [_jitter(m, rng) for m in bases]
        self.h2 = Molecule(np.array([1, 1]),
                           np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]]),
                           name="H2")
        self.configs = {
            "incore": ExecutionConfig(),
            "direct": ExecutionConfig(kernel="batched"),
            "ri": ExecutionConfig(jk="ri"),
        }
        # one warm-up SCF: pulls in the grid, XC and RI code paths
        run_rks(builders.water(), functional="pbe0", mode="direct",
                config=ExecutionConfig(jk="ri"))
        self.pool_mol = self.systems[0]
        self.pool_cfg = ExecutionConfig(executor="process", nworkers=nproc(),
                                        kernel="batched")
        t0 = time.perf_counter()
        self.pool = ExchangeWorkerPool(build_basis(self.pool_mol, "sto-3g"),
                                       nworkers=nproc())
        self.setup_extras["runtime.pool_spawn_s"] = time.perf_counter() - t0

    def _scf(self, mol, method, engine):
        from repro.scf import run_rhf
        from repro.scf.dft import run_rks

        mode = "incore" if engine == "incore" else "direct"
        cfg = self.configs[engine]
        if method == "hf":
            return run_rhf(mol, mode=mode, config=cfg)
        # repro.api.run_scf drops JobSpec.mode on the Kohn-Sham route,
        # so the PBE0 legs call run_rks directly
        return run_rks(mol, functional=method, mode=mode, config=cfg)

    def _pool_op(self, ledger):
        """One HF SCF on the shared pool; returns (op, energy)."""
        from repro.scf import run_rhf

        op, res = ledger.run(f"{self.pool_mol.name}/hf/pool", run_rhf,
                             self.pool_mol, mode="direct",
                             config=self.pool_cfg, jk_pool=self.pool)
        _check_scf(ledger, op, res, self.pool_mol)
        return op, (res.energy if res is not None else None)

    def round(self, ledger):
        from repro.scf import run_rhf

        sums = dict.fromkeys(self.ENGINES, 0.0)
        retried0 = self.pool.retried_jobs
        pool_runs = [self._pool_op(ledger)]
        for mol in self.systems:
            for method in ("hf", "pbe0"):
                ops, energy = {}, {}
                for engine in self.ENGINES:
                    op, res = ledger.run(f"{mol.name}/{method}/{engine}",
                                         self._scf, mol, method, engine)
                    sums[engine] += op.wall_s
                    _check_scf(ledger, op, res, mol)
                    ops[engine] = op
                    energy[engine] = res.energy if res is not None else None
                ledger.close_to(ops["direct"], energy["direct"],
                                energy["incore"], EXACT_TOL_HA,
                                "direct vs in-core energy")
                ledger.close_to(ops["ri"], energy["ri"], energy["incore"],
                                RI_TOL_HA_PER_ATOM * mol.natom,
                                "RI vs exact energy")
                if mol is self.pool_mol and method == "hf":
                    pool_ref = energy
            # the pool leg runs at the start and after each system's
            # block, so its samples span the round
            pool_runs.append(self._pool_op(ledger))
        for op, e_pool in pool_runs:
            for engine in ("incore", "direct"):
                ledger.close_to(op, e_pool, pool_ref[engine], EXACT_TOL_HA,
                                f"pool vs {engine} energy")
        pool_s = [op.wall_s for op, _ in pool_runs]
        op, res = ledger.run("H2/hf/incore", run_rhf, self.h2, mode="incore")
        _check_scf(ledger, op, res, self.h2)
        ledger.close_to(op, res.energy if res is not None else None,
                        H2_TEXTBOOK_HA, H2_TOL_HA,
                        "H2/STO-3G at R = 1.4 bohr vs Szabo-Ostlund")
        legs = {"leg1_s": [sums["incore"]], "leg2_s": [sums["direct"]],
                "leg3_s": [sums["ri"]], "leg4_s": pool_s}
        extras = {"runtime.pool_retried_jobs":
                  self.pool.retried_jobs - retried0}
        return legs, extras

    def close(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.close()


# --- bomd-pbe0 ---------------------------------------------------------------

def _force_sum_ok(ledger, op, states) -> None:
    for s in states:
        resid = float(np.abs(np.asarray(s.forces).sum(axis=0)).max())
        ledger.check(op, resid <= FORCE_SUM_TOL,
                     f"step {s.step}: |sum F| = {resid:.2e} > "
                     f"{FORCE_SUM_TOL:.0e}")


def _reload_latest(directory):
    from repro.md.integrator import MDState
    from repro.runtime import CheckpointStore

    state, _info = CheckpointStore(directory).load_latest()
    return MDState.from_dict(state["trajectory"][-1])


class _Trajectory:
    """One MD runner advanced one ``run(k)`` call (one step) at a time."""

    def __init__(self, make, step_leg, start_leg):
        self.make = make
        self.step_leg = step_leg
        self.start_leg = start_leg
        self.md = None
        self.last_op = None

    def _start(self):
        self.md = self.make()
        return self.md.run(1)

    def advance(self, ledger, tag, k) -> None:
        if k == 1:
            op, traj = ledger.run(f"{tag}/start", self._start)
            self.start_leg.append(op.wall_s)
        else:
            op, traj = ledger.run(f"{tag}/step", lambda: self.md.run(k))
            self.step_leg.append(op.wall_s)
            traj = traj[-1:] if traj is not None else None
        if traj is not None:
            _force_sum_ok(ledger, op, traj)
        self.last_op = op


class BomdPbe0(Workload):
    """A PBE0 BOMD trajectory of water and an MTS trajectory of LiH
    (PBE0 outer, PBE inner), advanced alternately one step at a time."""

    name = "bomd-pbe0"
    LEGS = {
        "leg1_s": "md_step_s: median wall per PBE0 BOMD step of water",
        "leg2_s": "mts_step_s: median wall per MTS outer step of LiH "
                  "(PBE0 outer, PBE inner, n_outer=5)",
        "leg3_s": "BOMD start: initial force call plus the first step",
        "leg4_s": "MTS start: initial full and inner force calls plus the "
                  "first outer step",
    }

    def setup(self) -> None:
        from repro.chem import builders
        from repro.scf.dft import run_rks

        self.md_mol = builders.h2() if self.smoke else builders.water()
        self.mts_mol = builders.h2() if self.smoke else builders.lih()
        self.md_steps = 2 if self.smoke else 6
        self.mts_steps = 2 if self.smoke else 4
        self.n_outer = 2 if self.smoke else 5
        # one warm-up SCF: pulls in the grid and XC code paths
        run_rks(builders.water(), functional="pbe0")

    def _config(self, directory):
        from repro.runtime import ExecutionConfig

        return ExecutionConfig(checkpoint_dir=str(directory),
                               checkpoint_every=1)

    def _check_reload(self, ledger, tag, md, directory) -> None:
        op, saved = ledger.run(f"{tag}/reload", _reload_latest, directory)
        if saved is None or md is None:
            ledger.check(op, False, "no trajectory to compare with")
            return
        s = md.state
        same = (saved.step == s.step and saved.energy_pot == s.energy_pot
                and np.array_equal(saved.coords, s.coords)
                and np.array_equal(saved.velocities, s.velocities)
                and np.array_equal(saved.forces, s.forces))
        ledger.check(op, same, f"checkpoint of step {saved.step} differs "
                               f"from the in-memory state at {s.step}")

    def round(self, ledger):
        from repro.md import BOMD, MTSBOMD

        d = self._round_dir(ledger)
        legs = {"leg1_s": [], "leg2_s": [], "leg3_s": [], "leg4_s": []}

        def make_bomd():
            return BOMD(self.md_mol, method="pbe0", dt_fs=0.5,
                        temperature=300.0, seed=self.seed,
                        config=self._config(d / "bomd"))

        def make_mts():
            m = MTSBOMD(self.mts_mol, method="pbe0", dt_fs=0.5,
                        temperature=300.0, seed=self.seed,
                        n_outer=self.n_outer, inner="pbe",
                        config=self._config(d / "mts"))
            if self.recorder is not None:
                self.recorder.rename(m.fast_engine, "md.inner_force")
            return m

        trajs = {"bomd": _Trajectory(make_bomd, legs["leg1_s"],
                                     legs["leg3_s"]),
                 "mts": _Trajectory(make_mts, legs["leg2_s"],
                                    legs["leg4_s"])}
        steps = {"bomd": self.md_steps, "mts": self.mts_steps}
        try:
            # the two trajectories advance alternately, so both legs
            # sample the whole round
            for k in range(1, max(steps.values()) + 1):
                for tag, traj in trajs.items():
                    if k <= steps[tag]:
                        traj.advance(ledger, tag, k)
            for tag, traj in trajs.items():
                if traj.md is not None and traj.md.state is not None:
                    masses = traj.md.mol.masses
                    e = [s.total_energy(masses) for s in traj.md.trajectory]
                    worst = max(abs(x - e[0]) for x in e)
                    ledger.check(traj.last_op,
                                 worst <= ENERGY_EXCURSION_TOL_HA,
                                 f"{tag}: total-energy excursion "
                                 f"{worst:.2e} Ha > "
                                 f"{ENERGY_EXCURSION_TOL_HA:.0e}")
                self._check_reload(ledger, tag, traj.md, d / tag)
        finally:
            for traj in trajs.values():
                if traj.md is not None:
                    traj.md.engine.close()
                    if hasattr(traj.md, "fast_engine"):
                        traj.md.fast_engine.close()
            shutil.rmtree(d, ignore_errors=True)
        return legs, {}


# --- campaign-screen ---------------------------------------------------------

def _physics(result: dict) -> str:
    """The part of a result envelope that must not depend on where or
    when the job ran, as an exact (repr-float) JSON string."""
    if "final" in result:
        f = result["final"]
        part = [f["step"], f["energy_pot"], f["coords"], f["velocities"]]
    else:
        s = result["scf"]
        part = [s["energy"], s["niter"], s["converged"]]
    return json.dumps(part)


class CampaignScreen(Workload):
    """The F7 screening list drained cold on process and on local lanes,
    each cold drain followed by warm drains from its cache."""

    name = "campaign-screen"
    #: Cold drains of one round, alternating so that both transports
    #: sample the whole round; the parallel drain, the noisiest, runs
    #: most often.
    COLD_ORDER = ("process", "local", "process", "local", "process")
    LEGS = {
        "leg1_s": "1 / campaign_process_jobs_per_s: cold drain on nproc "
                  "process lanes, wall per job (median of the drains)",
        "leg2_s": "1 / campaign_local_jobs_per_s: cold drain on nproc "
                  "local lanes, wall per job (median of the drains)",
        "leg3_s": "1 / campaign_cached_jobs_per_s: warm drains on one "
                  "local lane from a cold drain's cache, wall per job "
                  "(median of the blocks of 32 warm drains that follow "
                  "each cold drain)",
        "leg4_s": "submit to an in-memory campaign: JobSpec validation "
                  "and hashing, wall per job (median over the same "
                  "blocks of warm drains)",
    }

    def setup(self) -> None:
        from repro import api
        from repro.service import JobSpec, solvent_screening_specs

        solvents = ("ACN",) if self.smoke else ("PC", "DMSO", "ACN")
        scf = solvent_screening_specs(solvents=solvents,
                                      methods=("hf", "pbe0"),
                                      nperturb=1, perturb=JITTER_BOHR,
                                      jks=("direct", "ri"))
        # every geometry is jittered, from the benchmark seed
        scf = [s.replace(perturb=JITTER_BOHR,
                         perturb_seed=1000 * self.seed + s.perturb_seed)
               for s in scf]
        n_md = 1 if self.smoke else 2
        md = [JobSpec(kind="md", molecule="h2", method="hf", steps=2,
                      temperature=300.0, seed=100 * self.seed + i,
                      label=f"H2/hf/md{i}") for i in range(n_md)]
        self.specs = scf + md
        self.keys = [s.canonical_key() for s in self.specs]
        self.n_dupes = len(self.keys) - len(set(self.keys))
        self.unique = {}
        for spec, key in zip(self.specs, self.keys):
            self.unique.setdefault(key, spec)
        # warm drains after each cold drain, in blocks: one warm drain
        # of the 14 specs takes about 1 ms, too short to time steadily,
        # so a leg sample is a whole block (about 40 ms).  Blocks still
        # differ by a quarter on a shared VM, hence several per drain.
        self.warm_blocks = 1 if self.smoke else 4
        self.n_warm = 1 if self.smoke else 32
        self.lanes = nproc()
        self.cold = {"process": [], "local": []}    # per round: id -> physics
        # one warm-up SCF on an unjittered geometry (shares no cache key)
        api.run_scf(JobSpec(molecule="nitrile_model"))

    def _drain(self, ledger, tag, svc, transport, lanes=None):
        """Submit the list to ``svc`` and drain it on ``lanes`` lanes
        (default ``nproc``); returns the submit op, the drain op and
        the drain's report."""
        n = len(self.specs)

        def submit():
            for spec in self.specs:
                svc.submit(spec)

        submit_op, _ = ledger.run(f"{tag}/submit", submit)
        op, report = ledger.run(f"{tag}/drain", svc.run,
                                nworkers=lanes or self.lanes,
                                transport=transport)
        if report is not None:
            ledger.check(op, report["completed"] == n and
                         report["failed"] == 0,
                         f"{report['completed']}/{n} jobs completed, "
                         f"{report['failed']} failed")
        return submit_op, op, report

    def _warm(self, ledger, cache_dir, cold_bytes, extras):
        """One checked warm drain; returns its (submit, drain) wall."""
        from repro.service import CampaignService

        # an in-memory campaign over the shared cache directory: the
        # warm drain reads cache records and writes nothing, so this leg
        # times the cache-read path, not the campaign bookkeeping.  One
        # lane: cache reads hold the GIL, so a second thread lane adds
        # only hand-off latency, which on a shared VM varies 20-fold.
        svc = CampaignService(cache_dir=cache_dir)
        submit_op, op, report = self._drain(ledger, "warm-local", svc,
                                            "local", lanes=1)
        counters = (report or {}).get("counters", {})
        ledger.check(op, counters.get("service.cache_hits")
                     == len(self.specs),
                     "warm drain not served entirely from cache")
        warm_bytes = {j.id: json.dumps(j.result, sort_keys=True)
                      for j in svc.jobs.values()}
        ledger.check(op, warm_bytes == cold_bytes,
                     "warm results differ from the cold ones")
        extras["service.cache_hits"] += counters.get("service.cache_hits", 0)
        extras["service.jobs"] += len(svc.jobs)
        return submit_op.wall_s, op.wall_s

    def round(self, ledger):
        from repro.service import CampaignService

        d = self._round_dir(ledger)
        legs = {"leg1_s": [], "leg2_s": [], "leg3_s": [], "leg4_s": []}
        extras = dict.fromkeys(
            ("service.job_wall_s", "service.lane_idle_s",
             "service.frames_sent", "service.requeued_jobs",
             "service.cache_hits", "service.jobs"), 0.0)
        try:
            for n, transport in enumerate(self.COLD_ORDER):
                leg = "leg1_s" if transport == "process" else "leg2_s"
                home = d / f"cold-{n}"
                svc = CampaignService(home / "campaign",
                                      cache_dir=home / "cache",
                                      preempt_steps=1)
                _, op, report = self._drain(ledger, f"cold-{transport}",
                                            svc, transport)
                legs[leg].append(op.wall_s / len(self.specs))
                counters = (report or {}).get("counters", {})
                hits = counters.get("service.cache_hits")
                ledger.check(op, hits == self.n_dupes,
                             f"{hits} cache hits, {self.n_dupes} "
                             f"duplicates in the list")
                jobs = [svc.jobs[i] for i in sorted(svc.jobs)]
                self.cold[transport].append(
                    {j.id: _physics(j.result) for j in jobs
                     if j.result is not None})
                if transport == "local":
                    ledger.check(op, self.cold["local"][-1]
                                 == self.cold["process"][-1],
                                 "local and process lanes gave different "
                                 "results")
                job_wall = sum(j.wall_s for j in jobs)
                extras["service.job_wall_s"] += job_wall
                extras["service.lane_idle_s"] += \
                    op.wall_s * self.lanes - job_wall
                for name in ("frames_sent", "requeued_jobs", "cache_hits"):
                    extras[f"service.{name}"] += counters.get(
                        f"service.{name}", 0)
                extras["service.jobs"] += len(jobs)
                # blocks of warm drains from this drain's cache, right
                # after it, so the warm samples span the round
                cold_bytes = {j.id: json.dumps(j.result, sort_keys=True)
                              for j in jobs}
                warm_jobs = self.n_warm * len(self.specs)
                for _ in range(self.warm_blocks):
                    walls = [self._warm(ledger, home / "cache", cold_bytes,
                                        extras) for _ in range(self.n_warm)]
                    legs["leg4_s"].append(sum(w[0] for w in walls)
                                          / warm_jobs)
                    legs["leg3_s"].append(sum(w[1] for w in walls)
                                          / warm_jobs)
        finally:
            shutil.rmtree(d, ignore_errors=True)
        return legs, extras

    def finish(self, ledger) -> None:
        """Run each unique spec inline through ``repro.api`` and hold
        every drained copy of it to that answer, bit for bit."""
        from repro import api

        for key, spec in self.unique.items():
            run = api.run_md if spec.kind == "md" else api.run_scf
            op, ref = ledger.run(f"inline/{spec.label}", run, spec)
            if ref is None:
                continue
            want = _physics(ref)
            ids = [i for i, k in enumerate(self.keys) if k == key]
            for transport, rounds in self.cold.items():
                for r, results in enumerate(rounds):
                    bad = [i for i in ids if results.get(i) != want]
                    ledger.check(op, not bad,
                                 f"{transport} round {r}: jobs {bad} differ "
                                 f"from the inline run")


WORKLOADS = {w.name: w for w in (ScfEngines, BomdPbe0, CampaignScreen)}
