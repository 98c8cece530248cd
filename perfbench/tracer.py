"""Span tracer that wraps ncindex functions from outside the package.

`Tracer.installed()` replaces module and class attributes of ncindex (and
`numpy.linalg.svd` / `eigh`) with wrappers, and restores them on exit.
Nothing under `src/` is edited.  A function is rebound in every ncindex
module that holds a reference to it, because modules such as `covering`
import `chern_even` and `pair_cochain_form` by name; `cli` imports its
runners lazily per call, so patching the defining module covers it.

Self time is measured on a shared "busy clock": wall time is split equally
among the threads that are currently inside a traced span, and a thread
that waits on pool workers it started is not counted as busy.  The self
times of all spans therefore sum to at most the traced wall time, also
when the CLI's thread pool runs several experiments at once.  In a single
thread the busy clock is the wall clock.

Each span records name, start, end, parent and thread.  Spans of the
hottest names (called tens of thousands of times per instance) are only
aggregated; all other spans are also kept in memory for `span_records`.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time

import numpy as np

# names whose spans are aggregated but not stored one by one
HOT = frozenset({"group_algebra.GAMatrix.matmul", "nc_forms.JetFunction.mul"})


class _Frame:
    __slots__ = ("name", "sid", "parent", "start_v", "start_w", "child_v",
                 "waiters", "wait_v")

    def __init__(self, name, sid, parent, start_v, start_w):
        self.name = name
        self.sid = sid
        self.parent = parent
        self.start_v = start_v
        self.start_w = start_w
        self.child_v = 0.0
        self.waiters = 0        # pool workers running on its behalf
        self.wait_v = 0.0       # busy-clock reading when waiting began


class Tracer:
    """Per-thread span stacks, a shared busy clock, and aggregate counts."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack = None
        self._busy = 0          # threads inside a span and not waiting
        self._v = 0.0           # busy-clock reading
        self._last = time.perf_counter()
        self._next_sid = 0
        self._per_thread = []   # (stats, counts) of every thread seen
        self.spans = []         # (sid, name, parent sid, thread, start, end)

    def _tick(self):
        """Advance the busy clock; the caller holds the lock."""
        now = time.perf_counter()
        if self._busy:
            self._v += (now - self._last) / self._busy
        self._last = now
        return now, self._v

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = ([], {}, {})   # stack, stats, counts
            with self._lock:
                self._per_thread.append(st[1:])
                if threading.get_ident() == self._main:
                    self._main_stack = st[0]
        return st

    def count(self, name, n=1):
        counts = self._state()[2]
        counts[name] = counts.get(name, 0) + n

    def push(self, name):
        stack = self._state()[0]
        with self._lock:
            now, v = self._tick()
            sid = self._next_sid
            self._next_sid += 1
            parent = stack[-1] if stack else None
            if parent is None:
                self._busy += 1
                if (threading.get_ident() != self._main
                        and self._main_stack):
                    # a pool worker: its parent is the span that started
                    # the pool, which waits (is not busy) while it runs
                    parent = self._main_stack[-1]
                    if parent.waiters == 0:
                        self._busy -= 1
                        parent.wait_v = v
                    parent.waiters += 1
            frame = _Frame(name, sid, parent, v, now)
            stack.append(frame)
        return frame

    def pop(self, frame):
        stack, stats, _ = self._state()
        with self._lock:
            now, v = self._tick()
            stack.pop()
            parent = frame.parent
            dur_v = v - frame.start_v
            if stack:
                stack[-1].child_v += dur_v
            else:
                self._busy -= 1
                if parent is not None:
                    parent.waiters -= 1
                    if parent.waiters == 0:
                        # the wait counts as time its children cover
                        self._busy += 1
                        parent.child_v += v - parent.wait_v
        rec = stats.get(frame.name)
        if rec is None:
            rec = stats[frame.name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur_v - frame.child_v
        rec[2] += now - frame.start_w
        if frame.name not in HOT:
            self.spans.append((frame.sid, frame.name,
                               parent.sid if parent else None,
                               threading.get_ident(), frame.start_w, now))

    # -- results -----------------------------------------------------------
    def stats(self):
        """{name: (calls, self_s, wall_s)} summed over threads."""
        out = {}
        for stats, _ in self._per_thread:
            for name, (calls, self_s, wall_s) in stats.items():
                c, s, w = out.get(name, (0, 0.0, 0.0))
                out[name] = (c + calls, s + self_s, w + wall_s)
        return out

    def counts(self):
        out = {}
        for _, counts in self._per_thread:
            for name, n in counts.items():
                out[name] = out.get(name, 0) + n
        return out

    def span_records(self):
        return [{"id": s, "name": n, "parent": p, "thread": t,
                 "start": a, "end": b} for s, n, p, t, a, b in self.spans]

    # -- wrappers ----------------------------------------------------------
    def span(self, name, fn, on_result=None, on_error=None):
        """Wrap fn in a span; on_result(args, result) may record counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            frame = self.push(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self.pop(frame)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap fn so that each call adds one to the count `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced ncindex function while the block runs."""
        undo = []
        try:
            for owner, attr, wrap in _targets(self):
                orig = owner.__dict__[attr]
                new = wrap(orig)
                if isinstance(owner, type):
                    undo.append((owner, attr, orig))
                    setattr(owner, attr, new)
                    continue
                # rebind the function wherever ncindex holds a reference
                for mod in _ncindex_modules(owner):
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, new)
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)


def _ncindex_modules(owner):
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ncindex"
                                  or name.startswith("ncindex."))]
    if owner not in mods:
        mods.append(owner)
    return mods


def _svd_ops(args):
    m, n = np.shape(args[0])[-2:]
    return m * n * min(m, n)


def _eigh_ops(args):
    n = np.shape(args[0])[-1]
    return n ** 3


def _classmethod(tracer, name):
    def wrap(cm):
        return classmethod(tracer.span(name, cm.__func__))
    return wrap


def _targets(tr):
    """(owner, attribute, wrap) for every traced name.

    Imported here, after the caller has put the package on sys.path.
    """
    from ncindex import (bumps, chern, cli, covering, cyclic, group_algebra,
                         nc_forms, specflow, testing, toeplitz)
    from ncindex.errors import IllConditioned

    def plain(name, **kw):
        return lambda fn: tr.span(name, fn, **kw)

    def count(name):
        return lambda fn: tr.counter(name, fn)

    def on_matmul(args, out):
        tr.count("nc_forms.MixedForm.matmul.terms_out", len(out.terms))
        tr.count("nc_forms.MixedForm.matmul.dropped", int(out.dropped))

    def on_tau_error(exc):
        if isinstance(exc, IllConditioned):
            tr.count("toeplitz.ill_conditioned")

    def on_spectral_flow(args, result):
        tr.count("specflow.path_samples", len(args[0].mats))

    def on_experiment(args, result):
        rows, _wall, err = result
        if err is not None:
            tr.count("cli.error_rows", len(rows))

    def linalg(name, ops):
        def wrap(fn):
            def on_result(args, result):
                tr.count(f"linalg.{name}.ops", int(ops(args)))
            return tr.span(f"linalg.{name}", fn, on_result=on_result)
        return wrap

    testing_gen = plain("testing.generate")
    return [
        (group_algebra.GAMatrix, "__matmul__",
         plain("group_algebra.GAMatrix.matmul")),
        (group_algebra.GAMatrix, "entry",
         count("group_algebra.GAMatrix.entry.calls")),
        (nc_forms.MixedForm, "__matmul__",
         plain("nc_forms.MixedForm.matmul", on_result=on_matmul)),
        (nc_forms.MixedForm, "dtot", plain("nc_forms.MixedForm.dtot")),
        (nc_forms.MixedForm, "graded_trace",
         plain("nc_forms.MixedForm.graded_trace")),
        (nc_forms.MixedForm, "add_term",
         count("nc_forms.MixedForm.add_term.calls")),
        (nc_forms.JetFunction, "__mul__", plain("nc_forms.JetFunction.mul")),
        (chern, "chern_even", plain("chern.chern_even")),
        (chern, "chern_odd", plain("chern.chern_odd")),
        (chern, "closedness_defect", plain("chern.closedness_defect")),
        (chern, "bott_integral", plain("chern.bott_integral")),
        (cyclic, "closed_cocycle_basis",
         plain("cyclic.closed_cocycle_basis")),
        (cyclic, "chern_lambda", plain("cyclic.chern_lambda")),
        (cyclic, "pair_cochain_form", plain("cyclic.pair_cochain_form")),
        (cyclic.CyclicCochain, "__call__", count("cyclic.cochain_evals")),
        (covering.CoverData, "__init__", plain("covering.CoverData.init")),
        (covering, "build_mf_projection",
         plain("covering.build_mf_projection")),
        (covering, "verify_prop_chern", plain("covering.verify_prop_chern")),
        (covering, "omega_integral", plain("covering.omega_integral")),
        (bumps, "step", plain("bumps.step")),
        (toeplitz, "assemble_toeplitz", plain("toeplitz.assemble_toeplitz")),
        (toeplitz, "winding_index", plain("toeplitz.winding_index")),
        (toeplitz, "dynsys_formula", plain("toeplitz.dynsys_formula")),
        (toeplitz, "tau_index",
         plain(lambda args: f"toeplitz.tau_index.{args[0].system.kind}",
               on_error=on_tau_error)),
        (specflow, "verify_oddind", plain("specflow.verify_oddind")),
        (specflow, "spectral_flow",
         plain("specflow.spectral_flow", on_result=on_spectral_flow)),
        (specflow, "relative_index", plain("specflow.relative_index")),
        (specflow.SelfAdjointPath, "from_callable",
         _classmethod(tr, "specflow.SelfAdjointPath.from_callable")),
        (cli, "run", plain("cli.run")),
        (cli, "run_experiment",
         plain("cli.run_experiment", on_result=on_experiment)),
        (testing, "random_projection_form", testing_gen),
        (testing, "random_unitary_form", testing_gen),
        (testing, "random_projection_matrix", testing_gen),
        (testing, "random_unitary_matrix", testing_gen),
        (testing, "random_mixed_form", testing_gen),
        (np.linalg, "svd", linalg("svd", _svd_ops)),
        (np.linalg, "eigh", linalg("eigh", _eigh_ops)),
    ]
