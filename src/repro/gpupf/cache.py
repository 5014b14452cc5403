"""Compiled-kernel cache.

§4.3: "The framework ... caches generated binaries.  If the same set of
parameters is encountered, the previously generated kernel can be loaded
quickly."  Keys combine a hash of the source, the sorted macro
definitions, the target architecture, and the optimization level.  An
optional on-disk layer persists modules across processes.

Robustness properties:

* **Thread-safe.**  ``Sweeper(jobs=N)`` worker threads share one cache;
  all counter updates and ``_memory`` writes happen under a lock, and a
  per-key single-flight latch guarantees concurrent requests for the
  same key compile exactly once (the rest wait and take a hit).
* **Latch waits are bounded.**  A waiter blocks on the leader's latch
  for at most ``latch_timeout`` seconds; past that it assumes the
  leader crashed or wedged (a hung nvcc, a killed worker thread),
  *steals leadership* — releasing every other stale waiter — and
  compiles itself.  A live-but-slow leader finishing later is harmless
  (compilation is deterministic; last store wins).  Each takeover is
  counted in the ``latch_timeouts`` stat and the current context's
  ``cache.latch_timeout`` metric, so a wedged holder can never silence
  other requests forever.
* **Crash-safe disk entries.**  Writes go through a temp file +
  ``os.replace``; a corrupt or legacy-version entry is *quarantined*
  (renamed to ``<key>.mod.corrupt``) after its failed unpickle, counted
  in the ``corrupt`` stat, and never re-read — the entry is recompiled
  and rewritten in place.
* **Bounded.**  The memory layer holds at most :attr:`MAX_MODULES`
  modules in least-recently-used order: a hit makes its key the most
  recent, and an insert past the bound evicts the least recent key
  with no compile in flight (counted in the ``evictions`` stat).
  Compiled modules are acyclic, so an evicted module no other caller
  holds is freed at once, and the launch plans of its kernels with it
  (:func:`repro.gpusim.executor.plan_for`).  The disk layer is not
  bounded.
* **Fault-injectable.**  The ``cache.corrupt`` fault site corrupts the
  bytes read from disk, exercising the quarantine path deterministically
  (see :mod:`repro.faults`).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from typing import Dict, Mapping, Optional

from repro.faults import hooks as fault_hooks
from repro.kernelc.compiler import CompiledModule, nvcc

#: On-disk entry layout version.  Bump whenever the pickled module
#: graph changes shape; stale files then recompile instead of
#: unpickling garbage into the running process.
_FORMAT_VERSION = 5


def cache_key(source: str, defines: Optional[Mapping[str, object]],
              arch: str, opt_level: int) -> str:
    """Stable digest of one compilation request."""
    h = hashlib.sha256()
    h.update(source.encode())
    for name in sorted(defines or {}):
        h.update(f"-D{name}={(defines or {})[name]!r}".encode())
    h.update(arch.encode())
    h.update(str(opt_level).encode())
    return h.hexdigest()


class KernelCache:
    """In-memory (and optionally on-disk) compiled-module cache."""

    #: Default bound on a single-flight latch wait (seconds).  Long
    #: enough that no honest compile ever trips it; short enough that a
    #: crashed latch holder cannot wedge other requests forever.
    LATCH_TIMEOUT = 30.0

    #: Bound on the modules the memory layer keeps.  A module pins its
    #: IR and its kernels' launch plans, about 0.9 MB per cold serve
    #: request, so an unbounded warm worker grows with its history.
    #: Sized above the warm working sets: BENCH_serve cycles 3 TM
    #: configs, perfbench's serve-warm pool 9 (app, config) pairs, and
    #: one tuning harness call compiles fewer than 31 programs.
    MAX_MODULES = 64

    def __init__(self, disk_dir: Optional[str] = None,
                 latch_timeout: Optional[float] = None):
        #: key -> module, least recently used first.
        self._memory: "OrderedDict[str, CompiledModule]" = OrderedDict()
        self._lock = threading.RLock()
        self._in_flight: Dict[str, threading.Event] = {}
        self.disk_dir = disk_dir
        self.latch_timeout = (self.LATCH_TIMEOUT if latch_timeout is None
                              else latch_timeout)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.latch_timeouts = 0
        self.evictions = 0
        if disk_dir:
            os.makedirs(disk_dir, exist_ok=True)

    def compile(self, source: str,
                defines: Optional[Mapping[str, object]] = None,
                arch: str = "sm_20", opt_level: int = 3,
                headers: Optional[Mapping[str, str]] = None,
                ) -> CompiledModule:
        """nvcc with caching; headers participate in the key."""
        key_src = source
        if headers:
            key_src += "".join(f"\n//@{n}\n{headers[n]}"
                               for n in sorted(headers))
        key = cache_key(key_src, defines, arch, opt_level)
        # Resolved per call, like the fault injector below: the cache
        # may be shared by threads tracing into different contexts.
        from repro.obs.trace import current_tracer
        tracer = current_tracer()
        while True:
            with self._lock:
                module = self._memory.get(key)
                if module is not None:
                    self._memory.move_to_end(key)
                    self.hits += 1
                    if tracer is not None:
                        tracer.event("cache.hit", "cache",
                                     key=key[:16])
                    return module
                latch = self._in_flight.get(key)
                if latch is None:
                    latch = threading.Event()
                    self._in_flight[key] = latch
                    break  # we are the leader for this key
            # Another thread is compiling this key: wait (bounded), then
            # re-check.  If the leader finished or failed, the re-check
            # makes us hit or lead; if the wait *times out* the leader
            # is presumed crashed/wedged — steal leadership by retiring
            # its latch (waking every other stale waiter) and loop to
            # compile ourselves.
            if not latch.wait(timeout=self.latch_timeout):
                with self._lock:
                    self.latch_timeouts += 1
                    if self._in_flight.get(key) is latch:
                        del self._in_flight[key]
                latch.set()
                self._note_latch_timeout(key)
        try:
            module = self._load_from_disk(key)
            if module is not None:
                with self._lock:
                    self._insert(key, module)
                    self.hits += 1
                if tracer is not None:
                    tracer.event("cache.disk_hit", "cache",
                                 key=key[:16])
                return module
            with self._lock:
                self.misses += 1
            if tracer is not None:
                tracer.event("cache.miss", "cache", key=key[:16])
            module = nvcc(source, defines=defines, arch=arch,
                          opt_level=opt_level, headers=headers)
            with self._lock:
                self._insert(key, module)
            self._store_to_disk(key, module)
            return module
        finally:
            with self._lock:
                # Only retire *our own* latch: a waiter that timed out
                # may have already replaced it with its own.
                if self._in_flight.get(key) is latch:
                    del self._in_flight[key]
            latch.set()

    def _insert(self, key: str, module: CompiledModule) -> None:
        """Store *key* as the most recent entry, then evict past the
        bound.  Caller holds the lock and leads *key*'s compile, so
        *key* itself is never the victim."""
        self._memory[key] = module
        self._memory.move_to_end(key)
        excess = len(self._memory) - self.MAX_MODULES
        if excess <= 0:
            return
        victims = [k for k in self._memory
                   if k not in self._in_flight][:excess]
        for victim in victims:
            del self._memory[victim]
        self.evictions += len(victims)

    def _note_latch_timeout(self, key: str) -> None:
        """Charge one latch takeover to the current context's metrics."""
        try:
            from repro.runtime.context import current_context
            current_context().metrics.inc("cache.latch_timeout")
        except Exception:  # pragma: no cover - metrics must never wedge
            pass

    # -- disk layer ----------------------------------------------------

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.disk_dir, key + ".mod")

    def _load_from_disk(self, key: str) -> Optional[CompiledModule]:
        if not self.disk_dir:
            return None
        path = self._disk_path(key)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError:
            return None
        injector = fault_hooks.active()
        if injector is not None:
            raw = injector.corrupt_bytes("cache.corrupt", raw,
                                         detail=key[:16])
        try:
            version, module = pickle.loads(raw)
        except Exception:
            self._quarantine(path)
            return None
        if version != _FORMAT_VERSION or \
                not isinstance(module, CompiledModule):
            self._quarantine(path)
            return None
        return module

    def _store_to_disk(self, key: str, module: CompiledModule) -> None:
        if not self.disk_dir:
            return
        path = self._disk_path(key)
        tmp = path + f".tmp{os.getpid()}.{threading.get_ident()}"
        try:
            with open(tmp, "wb") as fh:
                pickle.dump((_FORMAT_VERSION, module), fh,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            pass

    def _quarantine(self, path: str) -> None:
        """Move a bad entry aside so it is never unpickled again."""
        with self._lock:
            self.corrupt += 1
        try:
            from repro.runtime.context import current_context
            current_context().events.record("cache.quarantine",
                                            path=os.path.basename(path))
        except Exception:  # pragma: no cover - forensics must never wedge
            pass
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- observability -------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """hits / misses / corrupt / latch_timeouts / evictions, read
        atomically."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "corrupt": self.corrupt,
                    "latch_timeouts": self.latch_timeouts,
                    "evictions": self.evictions}

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            self.hits = 0
            self.misses = 0
            self.corrupt = 0
            self.latch_timeouts = 0
            self.evictions = 0
