"""Engine backend selection: ``reference`` / ``compiled``.

Every backend is a pure performance transformation of the same simulation
-- the dense per-cycle oracle (``REPRO_DENSE_STEP=1``) remains the ground
truth and ``tests/test_engine_differential.py`` pins all of them to it
byte-for-byte.  The seam only decides *which* observably-identical driver
executes a run:

* ``reference`` — the event-driven engine (``GPU._run_event``) stepping
  every SM through ``StreamingMultiprocessor.step``.  Every hook surface
  (sanitizer wrappers, telemetry, tracers, issue hooks) works, so it runs
  every request the C core refuses, and every request on a machine
  without the extension.
* ``compiled`` — the event engine's cycle loop, the issue loop of
  ``SM.step`` / ``GTOScheduler.issue`` / ``SM._try_issue`` and the
  L1/L2/DRAM hierarchy lowered into the ``repro.sim._ckernel`` C extension
  on one global clock, with warp finishes and policy hooks served as ops
  through the real Python objects (:mod:`repro.sim.compiled`); the
  extension is built best-effort at install time.  Refused runs
  (instrumentation, concurrent launches, Fig 5 usage sampling, a non-GTO
  scheduler, instance wrappers on inlined surface) degrade to
  ``reference`` automatically and record why in ``gpu.engine_refusal``,
  so selecting ``compiled`` is always safe when the extension is
  importable.  When ``auto`` finds no extension, the run takes
  ``reference`` and ``gpu.engine_refusal`` reads ``extension-missing``.

Selection order: an explicit ``engine=`` argument to ``GPU.run`` wins, then
the ``REPRO_ENGINE`` environment variable, then ``auto`` (compiled when the
extension is importable, else reference).  ``REPRO_DENSE_STEP=1``
overrides everything -- the oracle is not a backend, it is the spec.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

#: Environment variable consulted when no explicit engine is passed.
ENGINE_ENV = "REPRO_ENGINE"

#: Every accepted ``REPRO_ENGINE`` value (``auto`` resolves at run time).
ENGINE_NAMES: Tuple[str, ...] = ("auto", "reference", "compiled")


class EngineUnavailableError(RuntimeError):
    """An explicitly requested backend cannot run in this environment.

    Raised when ``compiled`` is requested without the built
    ``repro.sim._ckernel`` extension.  ``auto`` never raises; it degrades
    to ``reference``.
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


def requested_engine(engine: Optional[str] = None) -> str:
    """The engine one run asks for: the explicit argument, then
    ``REPRO_ENGINE``, normalized (``auto`` when neither names one)."""
    return parse_engine(engine if engine is not None
                        else os.environ.get(ENGINE_ENV))


def select_backend(engine: Optional[str] = None) -> str:
    """Resolve the backend one run will use: the explicit argument, then
    ``REPRO_ENGINE``, then ``auto`` resolution.

    Returns ``reference`` or ``compiled``.  ``auto`` picks ``compiled``
    when the extension is importable and ``reference`` otherwise; an
    *explicit* request for an unavailable backend raises
    :class:`EngineUnavailableError` instead of silently degrading.
    """
    name = requested_engine(engine)
    if name == "auto":
        return "compiled" if compiled_available() else "reference"
    if name == "compiled" and not compiled_available():
        raise EngineUnavailableError(
            "REPRO_ENGINE=compiled requires the repro.sim._ckernel C "
            "extension, which is not importable in this environment; "
            "build it (pip install -e . with a C toolchain, or python "
            "setup.py build_ext --inplace) or use REPRO_ENGINE=auto "
            "(degrades to the reference backend)")
    return name
