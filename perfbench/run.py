#!/usr/bin/env python3
"""One benchmark command for the repro SCF engines, PBE0 BOMD and
screening campaigns.

    python3 perfbench/run.py --workload scf-engines --seed 1 \\
        --seconds 10 --trace 0 [--smoke] [--record FILE]

Runs one workload (see ``workloads.py`` and README.md) as a closed
loop of whole rounds from this one process until ``--seconds`` have
passed, checks every output, and prints as its last stdout line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` first times one untraced round, then wraps every layer
(``spans.py``) and prints the per-layer metrics, tracing overhead
included.  ``--smoke`` shrinks every input so all three workloads and
all their checks run in well under a minute.  ``--record FILE``
appends the full run record (fingerprint, samples, failures) as one
JSON line for ``compare.py``.

Exit status: 0 when every operation passed, 1 when any failed (the
result line is still printed), 2 when the program cannot be set up
(for instance when ``src/repro`` is missing).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

#: Process age at T0: interpreter start-up before this script ran.
AGE0 = harness.process_age_s() - (time.perf_counter() - T0)

WORKLOAD_NAMES = ("scf-engines", "bomd-pbe0", "campaign-screen")
LEGS = ("leg1_s", "leg2_s", "leg3_s", "leg4_s")
#: Extra set-ups per run (fresh processes); setup_s is their median
#: together with the measuring process's own.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60

#: span name -> per-layer self-time metric
SELF_TIME = {
    "integrals.eri_tensor": "integrals.eri_tensor_s",
    "integrals.one_electron": "integrals.one_electron_s",
    "integrals.schwarz": "integrals.schwarz_s",
    "basis.build": "basis.build_s",
    "basis.auxbasis": "basis.auxbasis_s",
    "scf.jk_build": "scf.jk_build_s",
    "scf.xc": "scf.xc_s",
    "scf.grid": "scf.grid_s",
    "scf.diis": "scf.diis_s",
    "scf.ri_metric": "scf.ri_metric_s",
    "scf.ri_assemble": "scf.ri_assemble_s",
    "scf.ri_contract": "scf.ri_contract_s",
    "scf.solver": "scf.solver_self_s",
    "md.force_call": "md.force_call_s",
    "md.inner_force": "md.inner_force_s",
    "md.integrator": "md.integrator_self_s",
    "runtime.pool_exchange": "runtime.pool_exchange_s",
    "runtime.checkpoint_save": "runtime.checkpoint_save_s",
    "runtime.fsio_write": "runtime.fsio_write_s",
    "service.frame_codec": "service.frame_codec_s",
    "service.cache_get": "service.cache_get_s",
    "service.cache_put": "service.cache_put_s",
    "service.jobspec_key": "service.jobspec_key_s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrunken inputs, one round, no set-up probes")
    p.add_argument("--record", metavar="FILE",
                   help="append the full run record as one JSON line")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_spec() -> dict:
    """The metric table: ``BENCHMARK.json`` at the checkout root."""
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def probe_setup(args) -> float:
    """``setup_s`` of a fresh process doing only the set-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--trace", "0", "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, cwd=harness.ROOT,
                         check=True)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def layer_metrics(recorder, extras, nrounds, wl, import_s, overhead_s):
    """Per-layer metrics per round, from the spans and the envelopes."""
    self_s, calls = recorder.self_times()
    c = recorder.counters

    def per(x):
        return x / nrounds

    def ratio(a, b):
        return a / b if b else 0.0

    m = {metric: per(self_s.get(span, 0.0))
         for span, metric in SELF_TIME.items()}
    m.update({
        "integrals.eri_tensor_calls": per(calls.get("integrals.eri_tensor",
                                                    0)),
        "integrals.quartets_computed": per(c.get(
            "integrals.quartets_computed", 0)),
        "integrals.screen_survival": ratio(
            c.get("integrals.quartets_computed", 0),
            c.get("integrals.quartets_considered", 0)),
        "scf.jk_builds": per(calls.get("scf.jk_build", 0)),
        "scf.fock_builds": per(c.get("scf.fock_builds", 0)),
        "scf.iterations_per_scf": ratio(c.get("scf.iterations", 0),
                                        c.get("scf.solves", 0)),
        "md.scf_per_force": recorder.solves_per_force_call(),
        "runtime.import_s": import_s,
        "runtime.pool_spawn_s": wl.setup_extras.get("runtime.pool_spawn_s",
                                                    0.0),
        "runtime.pool_exchanges": per(calls.get("runtime.pool_exchange", 0)),
        "runtime.pool_retried_jobs": per(extras.get(
            "runtime.pool_retried_jobs", 0)),
        "runtime.checkpoint_bytes": per(c.get("runtime.checkpoint_bytes",
                                              0)),
        "service.job_wall_s": per(extras.get("service.job_wall_s", 0.0)),
        "service.lane_idle_s": per(extras.get("service.lane_idle_s", 0.0)),
        "service.frames_sent": per(extras.get("service.frames_sent", 0)),
        "service.requeued_jobs": per(extras.get("service.requeued_jobs", 0)),
        "service.cache_hit_ratio": ratio(extras.get("service.cache_hits", 0),
                                         extras.get("service.jobs", 0)),
        "trace.overhead_s": overhead_s,
        "trace.wrapper_s": per(len(recorder.spans)) *
        recorder.cost_per_span(),
        "trace.spans": per(len(recorder.spans)),
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    cleared = harness.pin_environment()
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {harness.SRC / 'repro'}; "
              f"nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    t = time.perf_counter()
    import repro
    import_s = time.perf_counter() - t
    if Path(repro.__file__).resolve().parent != harness.SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{harness.SRC}", file=sys.stderr)
        return 2

    from spans import SpanRecorder
    from workloads import WORKLOADS

    spec = load_spec()
    work_dir = harness.WORK / f"run-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, args.smoke, work_dir)
    ledger = harness.Ledger()
    legs = {leg: [] for leg in LEGS}
    extras: dict[str, float] = {}
    round_walls = []
    recorder = None
    untraced_s = None
    try:
        wl.setup()
        setup_s = AGE0 + (time.perf_counter() - T0)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            ledger.round += 1
            t = time.perf_counter()
            wl.round(ledger)
            untraced_s = time.perf_counter() - t
            recorder = SpanRecorder()
            wl.recorder = recorder
            recorder.install()
        t_start = time.perf_counter()
        while True:
            ledger.round += 1
            t = time.perf_counter()
            round_legs, round_extras = wl.round(ledger)
            round_walls.append(time.perf_counter() - t)
            for leg, samples in round_legs.items():
                legs[leg].extend(samples)
            for key, value in round_extras.items():
                extras[key] = extras.get(key, 0.0) + value
            if args.smoke or time.perf_counter() - t_start >= args.seconds:
                break
    finally:
        if recorder is not None:
            recorder.uninstall()
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    wl.finish(ledger)
    rss_mib = harness.peak_rss_mib()

    setup_samples = [setup_s]
    if not (args.trace or args.smoke):
        for _ in range(SETUP_PROBES):
            _op, probed = ledger.run("setup-probe", probe_setup, args)
            if probed is not None:
                setup_samples.append(probed)

    if args.trace:
        overhead_s = statistics.median(round_walls) - untraced_s
        values = layer_metrics(recorder, extras, len(round_walls), wl,
                               import_s, overhead_s)
        table = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(setup_samples),
                  "peak_rss_mb": rss_mib}
        values.update({leg: statistics.median(samples)
                       for leg, samples in legs.items()})
        table = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in table}
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    if args.record:
        record = {
            "schema": "perfbench-record/1",
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "smoke": args.smoke, "fingerprint": harness.fingerprint(),
            "cleared_env": cleared, "rounds": len(round_walls),
            "round_walls_s": round_walls, "legs": wl.LEGS,
            "leg_samples": legs, "setup_samples_s": setup_samples,
            "failures": [{"op": op.name, "round": op.round,
                          "errors": op.errors}
                         for op in ledger.ops if op.failed],
            "result": result,
        }
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
