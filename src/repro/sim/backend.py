"""Engine backend selection: ``reference`` / ``fused`` / ``compiled``.

Every backend is a pure performance transformation of the same simulation
-- the dense per-cycle oracle (``REPRO_DENSE_STEP=1``) remains the ground
truth and ``tests/test_engine_differential.py`` pins all of them to it
byte-for-byte.  The seam only decides *which* observably-identical driver
executes a run:

* ``reference`` — the event-driven engine stepping every SM through the
  unfused ``StreamingMultiprocessor.step`` path.  Slowest, but every hook
  surface (sanitizer wrappers, telemetry, tracers, issue hooks) works.
* ``fused`` — the event-driven engine with the per-SM fused fast step
  (``_step_fast``) for SMs that pass ``fast_step_eligible()``; ineligible
  SMs transparently fall back to the reference step.  This is the
  toolchain-free default.
* ``compiled`` — the event engine's cycle loop and ``_step_fast``'s
  issue loop lowered into the ``repro.sim._ckernel`` C extension on one
  global clock, with shared memory accesses, warp finishes and policy
  hooks served as ops through the real Python objects
  (:mod:`repro.sim.compiled`); the extension is built best-effort at
  install time.  Refused runs (instrumentation, concurrent launches, an
  issue-hook policy, instance wrappers on inlined surface) degrade to
  ``fused`` automatically and record why in ``gpu.engine_refusal``, so
  selecting ``compiled`` is always safe when the extension is
  importable.

Selection order: an explicit ``engine=`` argument to ``GPU.run`` wins, then
the ``REPRO_ENGINE`` environment variable, then ``auto`` (compiled when the
extension is importable, else fused).  ``REPRO_DENSE_STEP=1`` overrides
everything -- the oracle is not a backend, it is the spec.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

#: Environment variable consulted when no explicit engine is passed.
ENGINE_ENV = "REPRO_ENGINE"

#: Every accepted ``REPRO_ENGINE`` value (``auto`` resolves at run time).
ENGINE_NAMES: Tuple[str, ...] = ("auto", "reference", "fused", "compiled")


class EngineUnavailableError(RuntimeError):
    """An explicitly requested backend cannot run in this environment.

    Raised when ``compiled`` is requested without the built
    ``repro.sim._ckernel`` extension.  ``auto`` never raises; it degrades
    down the chain (compiled -> fused).
    """


_COMPILED_AVAILABLE: Optional[bool] = None


def compiled_available() -> bool:
    """True when the ``repro.sim._ckernel`` C extension is importable.

    The extension is built best-effort at install time (a missing C
    toolchain skips it without failing the install), so absence is a
    supported steady state, not an error.
    """
    global _COMPILED_AVAILABLE
    if _COMPILED_AVAILABLE is None:
        try:
            import repro.sim._ckernel  # noqa: F401
            _COMPILED_AVAILABLE = True
        except ImportError:
            _COMPILED_AVAILABLE = False
    return _COMPILED_AVAILABLE


def parse_engine(value: Optional[str]) -> str:
    """Normalize a requested engine name (``None``/empty -> ``auto``).

    Unknown names fail loudly: a typo in ``REPRO_ENGINE`` silently running
    the wrong backend would invalidate a benchmark, so it is a ValueError.
    """
    if not value:
        return "auto"
    name = value.strip().lower()
    if name not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {value!r}; expected one of {ENGINE_NAMES}")
    return name


def select_backend(engine: Optional[str] = None) -> str:
    """Resolve the backend one run will use: the explicit argument, then
    ``REPRO_ENGINE``, then ``auto`` resolution.

    Returns one of ``reference`` / ``fused`` / ``compiled``.  ``auto``
    picks the fastest importable backend (``compiled`` -> ``fused``); an
    *explicit* request for an unavailable backend raises
    :class:`EngineUnavailableError` instead of silently degrading.
    """
    name = parse_engine(engine if engine is not None
                        else os.environ.get(ENGINE_ENV))
    if name == "auto":
        return "compiled" if compiled_available() else "fused"
    if name == "compiled" and not compiled_available():
        raise EngineUnavailableError(
            "REPRO_ENGINE=compiled requires the repro.sim._ckernel C "
            "extension, which is not importable in this environment; "
            "build it (pip install -e . with a C toolchain, or python "
            "setup.py build_ext --inplace) or use REPRO_ENGINE=auto "
            "(degrades to the fused backend)")
    return name
