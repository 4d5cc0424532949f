"""Span recording from outside the program.

The benchmark wraps the public entry point of each layer of ``repro``
(nothing under ``src/`` changes).  Every wrapped call becomes one span:
name, start, end, parent (the innermost wrapped call still open on the
same thread).  A layer's self time is the summed duration of its spans
minus the part their child spans cover.

Work inside forked pool workers and process lanes is invisible here;
the workloads report it from the counters the program returns.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import weakref

#: (module, attribute, span name).  A module-level function is replaced
#: in every loaded ``repro`` module that bound it by name; a dotted
#: attribute ``Class.method`` is replaced on that class.
LAYERS = (
    ("repro.integrals.eri", "eri_tensor", "integrals.eri_tensor"),
    ("repro.integrals.overlap", "overlap_matrix", "integrals.one_electron"),
    ("repro.integrals.kinetic", "kinetic_matrix", "integrals.one_electron"),
    ("repro.integrals.nuclear", "nuclear_matrix", "integrals.one_electron"),
    ("repro.integrals.eri", "ERIEngine.schwarz_bounds", "integrals.schwarz"),
    ("repro.basis.basisset", "build_basis", "basis.build"),
    ("repro.basis.auxbasis", "build_aux_basis", "basis.auxbasis"),
    ("repro.scf.grid", "MolecularGrid.build", "scf.grid"),
    ("repro.scf.dft", "XCIntegrator.__init__", "scf.grid"),
    ("repro.scf.dft", "XCIntegrator.exc_and_potential", "scf.xc"),
    ("repro.scf.rhf", "RHF.build_jk", "scf.jk_build"),
    ("repro.scf.rhf", "RHF.run", "scf.solver"),
    ("repro.scf.dft", "RKS.run", "scf.solver"),
    ("repro.scf.diis", "DIIS.extrapolate", "scf.diis"),
    ("repro.integrals.ri", "metric_2c", "scf.ri_metric"),
    ("repro.integrals.ri", "inv_sqrt_metric", "scf.ri_metric"),
    ("repro.scf.ri_jk", "RIJKBuilder._ensure_b", "scf.ri_assemble"),
    ("repro.scf.ri_jk", "RIJKBuilder.build", "scf.ri_contract"),
    ("repro.scf.fock", "DirectJKBuilder.build", None),
    ("repro.md.bomd", "SCFForceEngine.energy_forces", "md.force_call"),
    ("repro.md.bomd", "CheckpointedMD.run", "md.integrator"),
    ("repro.md.integrator", "VelocityVerlet.initial_state", "md.integrator"),
    ("repro.md.integrator", "VelocityVerlet.step", "md.integrator"),
    ("repro.md.respa", "RESPAIntegrator.initial_state", "md.integrator"),
    ("repro.md.respa", "RESPAIntegrator.step", "md.integrator"),
    ("repro.runtime.pool", "ExchangeWorkerPool.exchange",
     "runtime.pool_exchange"),
    ("repro.runtime.checkpoint", "CheckpointStore.save",
     "runtime.checkpoint_save"),
    ("repro.runtime.fsio", "atomic_write_bytes", "runtime.fsio_write"),
    ("repro.service.cache", "ResultCache.get", "service.cache_get"),
    ("repro.service.cache", "ResultCache.put", "service.cache_put"),
    ("repro.service.jobspec", "JobSpec.canonical_key", "service.jobspec_key"),
    ("repro.service.transport", "encode_frame", "service.frame_codec"),
    ("repro.service.transport", "try_decode", "service.frame_codec"),
)


def _count_solver(rec, args, result):
    rec.bump("scf.solves", 1)
    rec.bump("scf.fock_builds", int(result.fock_builds))
    rec.bump("scf.iterations", int(result.niter))


def _count_direct(rec, args, result):
    jk = args[0]
    rec.bump("integrals.quartets_computed", int(jk.quartets_computed))
    rec.bump("integrals.quartets_considered", int(jk.quartets_total))


def _count_checkpoint(rec, args, result):
    rec.bump("runtime.checkpoint_bytes", int(result.nbytes))


#: Counters read off a wrapped call's arguments and return value.
ON_EXIT = {
    "RHF.run": _count_solver,
    "RKS.run": _count_solver,
    "DirectJKBuilder.build": _count_direct,
    "CheckpointStore.save": _count_checkpoint,
}


#: No-op calls timed bare and wrapped by :meth:`SpanRecorder.cost_per_span`.
CALIBRATION_CALLS = 20000


class SpanRecorder:
    """In-memory spans plus counters; install/uninstall the wrappers."""

    def __init__(self):
        self.spans: list[list] = []      # [name, t0, t1, parent]
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._renamed: dict[int, tuple] = {}   # id -> (weakref, name)
        self._undo: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def bump(self, name: str, n) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def rename(self, obj, name: str) -> None:
        """Record ``obj``'s wrapped method calls under ``name`` (e.g.
        the inner engine of a multiple-time-stepping run).

        The entry holds a weak reference, so a later object that reuses
        a freed ``obj``'s id keeps its own span names."""
        self._renamed[id(obj)] = (weakref.ref(obj), name)

    def _span_name(self, obj, name: str) -> str:
        entry = self._renamed.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        return name

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, on_exit, is_method):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                on_exit(rec, args, result)
                return result
            span_name = name
            if is_method and args:
                span_name = rec._span_name(args[0], name)
            stack = rec._stack()
            span = [span_name, time.perf_counter(), None,
                    stack[-1] if stack else -1]
            with rec._lock:
                idx = len(rec.spans)
                rec.spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if on_exit is not None:
                on_exit(rec, args, result)
            return result

        return wrapper

    # --- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS`; :meth:`uninstall`
        restores the originals."""
        import importlib

        for modname, attr, name in LAYERS:
            module = importlib.import_module(modname)
            on_exit = ON_EXIT.get(attr)
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(module, clsname)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(raw.__func__, name, on_exit, False))
                else:
                    wrapped = self._wrap(raw, name, on_exit, True)
                setattr(cls, meth, wrapped)
                self._undo.append((cls, meth, raw))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, name, on_exit, False)
            for mod in list(sys.modules.values()):
                modn = getattr(mod, "__name__", "") or ""
                if not (modn == "repro" or modn.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # --- aggregation ---------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per-name (self seconds, call count) over all closed spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if t1 is not None and parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, t0, t1, _parent) in enumerate(self.spans):
            if t1 is None:
                continue
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def cost_per_span(self) -> float:
        """Seconds one wrapped call adds over a bare call (measured on
        ``CALIBRATION_CALLS`` no-op calls; the spans they record are
        dropped again)."""
        def noop():
            return None

        wrapped = self._wrap(noop, "trace.calibration", None, False)
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        bare = time.perf_counter() - t0
        n0 = len(self.spans)
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        traced = time.perf_counter() - t0
        del self.spans[n0:]
        return max(0.0, (traced - bare) / CALIBRATION_CALLS)

    def solves_per_force_call(self) -> float:
        """SCF solves per full-surface force call (inner-surface calls
        of a multiple-time-stepping run excluded)."""
        forces = 0
        solves = 0
        for name, _t0, _t1, parent in self.spans:
            if name == "md.force_call":
                forces += 1
            elif name == "scf.solver":
                p = parent
                while p >= 0 and self.spans[p][0] not in (
                        "md.force_call", "md.inner_force"):
                    p = self.spans[p][3]
                if p >= 0 and self.spans[p][0] == "md.force_call":
                    solves += 1
        return solves / forces if forces else 0.0
