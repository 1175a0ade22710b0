"""Static engine-equivalence auditor: effect summaries for the compiled gates.

The compiled backend (``run_compiled``, the ``_ckernel`` C core) is only
sound because hand-maintained gates route every instrumented or
specialised run back to the reference engine: ``compiled_refusal``,
``policy_refusal`` / ``_INERT_POLICY_ATTRS`` and ``_BYPASSED_SM_ATTRS``.
Nothing used to *verify* those lists — a new hook read on the reference
path, or a new policy override outside the checked surface, silently
diverged the C core instead of disabling it.

This module parses the simulator source (no simulation is run) into
per-method **effect summaries** — which attributes a method reads or
writes on which receiver, which methods it calls, and under which guard
conditions — then closes them over the call graph and audits the gates:

* **Issue-loop completeness** — every effect of the reference step
  closure (``SM.step`` + scheduler ``issue`` + ``_try_issue``, and
  ``SM.next_event``), the code the C core transcribes, that the compiled
  driver's closure (its lowering, gate and served ops) does not reproduce
  must be *covered*: mentioned by ``compiled_refusal``, named in
  ``_BYPASSED_SM_ATTRS``, reachable only under a gate-checked guard (e.g.
  ``_div_forks`` behind ``self._wt``), or recorded in the audited fold
  table (``_CORE_FOLDED``, effects the core keeps in its own state rather
  than re-reading).  Anything else is a HIGH ``fast-gate-missing`` finding.
* **Compiled bypass completeness** — SM methods the event engine invokes
  dynamically (the event loop's calls plus the ``self.<method>`` calls of
  the bodies the C core transcribes) but the compiled driver never calls
  must all appear in ``_BYPASSED_SM_ATTRS`` (or be reachable only under a
  gate-checked guard), so an instance-level wrapper can never be skipped.
  So must every SM method the C source marks ``transcribes
  StreamingMultiprocessor.<name>``, even where the driver still calls it
  for some of its calls (the core runs the rest itself).
* **Policy gate derivation** — the policy surface the C core runs itself
  is derived from two sources: hooks the Python engines reach that the
  compiled driver never serves (the issue hook, the idle attribution
  inside ``accumulate``, ...), and every policy body the C source marks
  ``transcribes <PolicyClass>.<name>``.  Each derived name must be
  checked by ``policy_refusal`` (via ``_INERT_POLICY_ATTRS`` or its direct
  attribute reads); stale or never-overridden entries are reported.  The
  markers are checked both ways against the bodies the gate admits (the
  base body of every checked name plus ``_CORE_POLICY_BODIES``): an
  admitted body without a marker is HIGH, a marker naming a body the gate
  does not admit is MEDIUM.  Subclasses whose checked overrides are all
  admitted bodies are listed as running on the compiled core.
* **Determinism** — the launch/arbiter layer (and every audited module) is
  re-checked for unordered set iteration, and every ``sorted``/``min``/
  ``max`` key lambda must break ties on a unique id attribute.

Severity vocabulary is shared with the rest of the analyze layer
(:mod:`repro.validate.findings`): HIGH = ``Severity.ERROR`` (fails CI),
MEDIUM = ``Severity.WARNING`` (fails ``--strict``), LOW = ``Severity.INFO``.

The summaries are deliberately conservative approximations: guard sets
only shrink coverage (an unguarded read of a bypassed attribute is always
a finding), local aliases (``wt = self._wt``; ``try_issue =
self._try_issue``) are tracked flow-insensitively, and receiver
namespaces are resolved by the simulator's own strict naming conventions
(``self``/``sm``/``sched``/``scheduler``/``gpu``/``policy``).
``audit_effects`` with a seeded fault — see :mod:`repro.analyze
.effects_selftest` — proves each audit actually fires.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.analyze.lint import lint_source
import re

from repro.sim.compiled import (_BYPASSED_SM_ATTRS, _CORE_POLICY_BODIES,
                                _INERT_POLICY_ATTRS, instance_overrides)
from repro.validate.findings import Finding, FindingReport, Severity

__all__ = [
    "EffectsConfig", "default_effects_config", "audit_effects",
    "instance_overrides",
]

HIGH = Severity.ERROR
MEDIUM = Severity.WARNING
LOW = Severity.INFO

_REPRO_ROOT = Path(__file__).resolve().parents[1]

#: Module keys -> repo-relative source files the auditor parses.
SIM_MODULE_FILES = {
    "sim.sm": "sim/sm.py",
    "sim.scheduler": "sim/scheduler.py",
    "sim.gpu": "sim/gpu.py",
    "sim.compiled": "sim/compiled.py",
    "sim.launch": "sim/launch.py",
}
POLICY_MODULE_FILES = {
    "policies.base": "policies/base.py",
    "policies.baseline": "policies/baseline.py",
    "policies.virtual_thread": "policies/virtual_thread.py",
    "policies.finereg": "policies/finereg.py",
    "policies.finereg_adaptive": "policies/finereg_adaptive.py",
    "policies.reg_dram": "policies/reg_dram.py",
    "policies.regmutex": "policies/regmutex.py",
    "policies.unified_memory": "policies/unified_memory.py",
}
MODULE_FILES = {**SIM_MODULE_FILES, **POLICY_MODULE_FILES}
#: The C core, scanned for its policy transcription markers.
CORE_C_FILE = "sim/_ckernel.c"
_TRANSCRIBES = re.compile(r"transcribes\s+(\w+)\.(\w+)")
#: The class whose methods the C core's SM markers name.
_SM_CLASS = "StreamingMultiprocessor"
#: The compiled driver's gate functions (refusal checks, not served ops).
_GATE_FUNCTIONS = ("policy_refusal", "compiled_refusal", "core_bodies",
                   "runs_core_body")

#: Receiver namespaces with a backing class.
_NAMESPACE_CLASSES = {
    "sm": ("sim.sm", "StreamingMultiprocessor"),
    "sched": ("sim.scheduler", "GTOScheduler"),
    "gpu": ("sim.gpu", "GPU"),
}
#: Local variable names that, by simulator convention, always hold a
#: receiver of the corresponding namespace.
_NS_BY_LOCAL = {
    "sm": "sm", "sched": "sched", "scheduler": "sched",
    "gpu": "gpu", "policy": "policy",
}
#: Attribute names that re-root a receiver chain into the policy namespace
#: (``self._policy.on_tick`` / ``sm.policy.fill``).
_POLICY_LINKS = ("policy", "_policy")
#: ... and into the gpu namespace: the compiled driver's ``_Run`` holds
#: the GPU as ``self.gpu`` (``gpu = self.gpu`` / ``self.gpu._finish_run``).
_GPU_LINKS = ("gpu", "_gpu")

#: The fold rationale shared by the scheduler's issue buckets.
_BUCKETS = (
    "the core keeps no ready/blocked buckets: issue_loop scans the "
    "scheduler's CSched.members in sched_seq order, and the buckets only "
    "reorder consideration of warps that could not issue anyway")

#: Reference-only effects the C core reproduces from its own state instead
#: of reading them, with the equivalence argument.  A name also covers its
#: dotted reads (``_ready`` covers ``_ready.sort``).  An entry that stops
#: showing up in the reference-minus-compiled diff is reported stale
#: (MEDIUM) so the table cannot rot.
_CORE_FOLDED: Dict[Tuple[str, str], str] = {
    ("sched", "issue"): (
        "GTOScheduler.issue is transcribed by issue_loop (greedy retry of "
        "CSched.current, then the oldest-first scan); compiled_refusal "
        "pins the scheduler type to GTOScheduler"),
    ("sched", "_note_sleep"): (
        "the telemetry-free sleep fold is inlined in issue_loop's "
        "failed-scan path, writing CSched.sleep_until; sched.telemetry is "
        "gate-checked"),
    ("sched", "_ready"): _BUCKETS,
    ("sched", "_blocked"): _BUCKETS,
    ("sched", "_rebuild"): _BUCKETS,
    ("sched", "_current"): (
        "the greedy retry reads the state and blocked_until of the CWarp "
        "that CSched.current names, which export()/sync() keep in step "
        "with sched._current"),
    ("sm", "_last_step_issued"): (
        "the core counts a step's issues in CSm.issued, which its "
        "end-of-cycle accounting reads where the event loop reads "
        "_last_step_issued"),
}

#: Base-policy attributes the engine reaches but the inertness gate may
#: legitimately skip, with the reason.
_INERT_EXEMPT: Dict[str, str] = {
    "name": "pure label, copied into SimResult.policy; never affects "
            "simulated state",
}

#: Attributes that make a sort key a stable unique-id tie-break.
_UNIQUE_ID_ATTRS = frozenset({
    "cta_id", "sm_id", "index", "warp_id", "global_warp_id",
    "scheduler_id", "index_base", "warp_base", "cta_base",
})


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EffectsConfig:
    """Inputs of one audit run.

    ``sources`` maps module keys (``sim.sm`` ...) to python source text
    and ``core_source`` is the C core's source; the self-test overrides
    individual entries to inject faults without touching the tree.  The gate tuples default to the live values
    imported from :mod:`repro.sim.compiled`, so editing the real gate is
    immediately visible to the audit.
    """

    sources: Mapping[str, str]
    paths: Mapping[str, str]
    bypassed_sm_attrs: Tuple[str, ...] = _BYPASSED_SM_ATTRS
    inert_policy_attrs: Tuple[str, ...] = _INERT_POLICY_ATTRS
    core_policy_bodies: Tuple[Tuple[str, str], ...] = tuple(
        (owner.__name__, name) for owner, name in _CORE_POLICY_BODIES)
    core_source: str = ""


def default_effects_config() -> EffectsConfig:
    sources = {}
    paths = {}
    for key, rel in MODULE_FILES.items():
        path = _REPRO_ROOT / rel
        sources[key] = path.read_text()
        paths[key] = f"src/repro/{rel}"
    return EffectsConfig(
        sources=sources, paths=paths,
        core_source=(_REPRO_ROOT / CORE_C_FILE).read_text())


# ----------------------------------------------------------------------
# Source indexing
# ----------------------------------------------------------------------
class _ClassInfo:
    __slots__ = ("name", "bases", "methods", "attr_names", "lineno")

    def __init__(self, node: ast.ClassDef) -> None:
        self.name = node.name
        self.lineno = node.lineno
        self.bases = [_base_name(b) for b in node.bases]
        self.methods: Dict[str, List[ast.FunctionDef]] = {}
        self.attr_names: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods.setdefault(stmt.name, []).append(stmt)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.attr_names.add(target.id)
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    self.attr_names.add(stmt.target.id)

    @property
    def body_names(self) -> Set[str]:
        return set(self.methods) | self.attr_names


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


class _ModuleInfo:
    __slots__ = ("key", "path", "tree", "classes", "functions")

    def __init__(self, key: str, source: str, path: str) -> None:
        self.key = key
        self.path = path
        self.tree = ast.parse(source)
        self.classes: Dict[str, _ClassInfo] = {}
        self.functions: Dict[str, ast.FunctionDef] = {}
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = _ClassInfo(node)
            elif isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node


class _CodeIndex:
    """All parsed modules plus namespace-aware method lookup."""

    def __init__(self, config: EffectsConfig) -> None:
        self.config = config
        self.modules: Dict[str, _ModuleInfo] = {
            key: _ModuleInfo(key, source, config.paths.get(key, key))
            for key, source in config.sources.items()
        }
        self._summaries: Dict[Tuple[int, Optional[str]], "_EffectMap"] = {}

    def cls(self, ns: str) -> Optional[_ClassInfo]:
        spec = _NAMESPACE_CLASSES.get(ns)
        if spec is None:
            return None
        module = self.modules.get(spec[0])
        return module.classes.get(spec[1]) if module else None

    def lookup(self, ns: str, name: str) -> List[ast.FunctionDef]:
        """Bodies a ``<ns receiver>.<name>`` reference can dispatch to."""
        if ns == "comp":
            # The compiled driver: module functions plus the _Run lowering
            # class, whose ``self.<method>`` calls stay in this namespace.
            module = self.modules.get("sim.compiled")
            if module is None:
                return []
            node = module.functions.get(name)
            if node is not None:
                return [node]
            return [fn for info in module.classes.values()
                    for fn in info.methods.get(name, [])]
        info = self.cls(ns)
        if info is None:
            return []
        return info.methods.get(name, [])

    def summarize(self, node: ast.FunctionDef,
                  self_ns: Optional[str]) -> "_EffectMap":
        key = (id(node), self_ns)
        cached = self._summaries.get(key)
        if cached is None:
            visitor = _EffectVisitor(self_ns)
            for stmt in node.body:
                visitor.visit(stmt)
            cached = visitor.items
            self._summaries[key] = cached
        return cached

    def policy_classes(self) -> Dict[str, Tuple[str, _ClassInfo]]:
        """RegisterFilePolicy and every transitive subclass, by name."""
        by_name: Dict[str, Tuple[str, _ClassInfo]] = {}
        for key, module in self.modules.items():
            for cname, info in module.classes.items():
                by_name[cname] = (key, info)
        family = {"RegisterFilePolicy"}
        changed = True
        while changed:
            changed = False
            for cname, (_, info) in by_name.items():
                if cname in family:
                    continue
                if any(base in family for base in info.bases):
                    family.add(cname)
                    changed = True
        return {cname: by_name[cname] for cname in sorted(family)
                if cname in by_name}


#: (ns, name) -> set of guard frozensets (one per distinct access context).
_EffectMap = Dict[Tuple[str, str], Set[FrozenSet[str]]]


class _EffectVisitor(ast.NodeVisitor):
    """Collects one method body's receiver-attribute effects."""

    def __init__(self, self_ns: Optional[str]) -> None:
        self.self_ns = self_ns
        self.items: _EffectMap = {}
        self._guards: List[FrozenSet[str]] = []
        self._aliases: Dict[str, Tuple[str, str]] = {}

    # -- recording ------------------------------------------------------
    def _record(self, ns: str, name: str) -> None:
        if self._guards:
            guards: FrozenSet[str] = frozenset().union(*self._guards)
        else:
            guards = frozenset()
        self.items.setdefault((ns, name), set()).add(guards)

    # -- receiver resolution -------------------------------------------
    def _resolve(self, node: ast.expr) -> Optional[Tuple[str, Optional[str]]]:
        """(namespace, chained-prefix) of an expression used as receiver."""
        if isinstance(node, ast.Name):
            nid = node.id
            if nid == "self":
                return (self.self_ns, None) if self.self_ns else None
            alias = self._aliases.get(nid)
            if alias is not None:
                ns, name = alias
                if name in _POLICY_LINKS and ns in ("sm", "gpu"):
                    return ("policy", None)
                return (ns, name)
            ns = _NS_BY_LOCAL.get(nid)
            if ns is not None:
                return (ns, None)
            return None
        if isinstance(node, ast.Attribute):
            base = self._resolve(node.value)
            if base is None:
                return None
            ns, prefix = base
            if prefix is not None and "." in prefix:
                return None  # depth cap: record two levels only
            attr = node.attr
            if attr in _POLICY_LINKS and ns in ("sm", "gpu"):
                return ("policy", None)
            if attr in _GPU_LINKS and ns == "comp":
                return ("gpu", None)
            return (ns, attr if prefix is None else f"{prefix}.{attr}")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "type" and len(node.args) == 1):
            return self._resolve(node.args[0])
        return None

    # -- guard extraction ----------------------------------------------
    def _guard_names(self, test: ast.expr) -> FrozenSet[str]:
        names: Set[str] = set()
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute):
                resolved = self._resolve(node)
                if resolved is not None and resolved[1] is not None:
                    names.add(resolved[1])
            elif isinstance(node, ast.Name):
                alias = self._aliases.get(node.id)
                if alias is not None:
                    names.add(alias[1])
        return frozenset(names)

    # -- visitors -------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        resolved = self._resolve(node)
        if resolved is not None and resolved[1] is not None:
            self._record(resolved[0], resolved[1])
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if (len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Attribute)):
            resolved = self._resolve(node.value)
            if resolved is not None and resolved[1] is not None:
                self._aliases[node.targets[0].id] = resolved
        self.generic_visit(node)

    def _guarded(self, guards: FrozenSet[str],
                 nodes: Iterable[ast.AST]) -> None:
        self._guards.append(guards)
        try:
            for child in nodes:
                self.visit(child)
        finally:
            self._guards.pop()

    def visit_If(self, node: ast.If) -> None:
        guards = self._guard_names(node.test)
        # The test's own reads are self-guarding (``if self._wt is not
        # None`` never dereferences the hook), as is the guarded body.
        self._guarded(guards, [node.test])
        self._guarded(guards, node.body)
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_IfExp(self, node: ast.IfExp) -> None:
        guards = self._guard_names(node.test)
        self._guarded(guards, [node.test, node.body])
        self.visit(node.orelse)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        for stmt in node.body:  # nested defs: same receiver conventions
            self.visit(stmt)

    visit_AsyncFunctionDef = visit_FunctionDef


# ----------------------------------------------------------------------
# Interprocedural closure
# ----------------------------------------------------------------------
def _closure(index: _CodeIndex, seeds: Iterable[Tuple[str, str]],
             traversable: FrozenSet[str],
             skip: FrozenSet[Tuple[str, str]] = frozenset()) -> _EffectMap:
    """Effects reachable from ``seeds``, guards inherited through calls.

    Only namespaces in ``traversable`` are expanded; references into any
    other namespace are recorded but treated as opaque.  ``skip`` prunes
    specific methods (e.g. the compiled backend's fallback delegation to
    the event engine, which is not part of the decoupled path).
    """
    result: _EffectMap = {}
    seen: Set[Tuple[str, str, FrozenSet[str]]] = set()
    work: deque = deque(
        (ns, name, frozenset()) for ns, name in seeds)
    while work:
        ns, name, inherited = work.popleft()
        if (ns, name) in skip:
            continue
        for node in index.lookup(ns, name):
            for (ins, iname), guardsets in index.summarize(
                    node, ns).items():
                for guards in guardsets:
                    eff: FrozenSet[str] = guards | inherited
                    result.setdefault((ins, iname), set()).add(eff)
                    if (ins in traversable and "." not in iname
                            and (ins, iname) not in skip
                            and index.lookup(ins, iname)):
                        key = (ins, iname, eff)
                        if key not in seen:
                            seen.add(key)
                            work.append((ins, iname, eff))
    return result


def _gate_mentions(index: _CodeIndex, ns: str, name: str) -> Set[str]:
    """Attribute names and string literals a gate function checks."""
    mentions: Set[str] = set()
    for node in index.lookup(ns, name):
        for child in ast.walk(node):
            if isinstance(child, ast.Attribute):
                mentions.add(child.attr)
            elif (isinstance(child, ast.Constant)
                    and isinstance(child.value, str)
                    and "\n" not in child.value):
                mentions.add(child.value)
    return mentions


def _last(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _finding(tag: str, severity: Severity, message: str, path: str,
             line: Optional[int] = None) -> Finding:
    return Finding(tag=tag, severity=severity, message=message,
                   source="effects-audit", path=path, line=line)


def _core_markers(source: str, owners: Iterable[str]
                  ) -> Dict[Tuple[str, str], int]:
    """``transcribes <Class>.<name>`` markers in the C source for the
    classes in ``owners``, each with the line of its first mention."""
    wanted = set(owners)
    markers: Dict[Tuple[str, str], int] = {}
    for match in _TRANSCRIBES.finditer(source):
        if match.group(1) in wanted:
            markers.setdefault((match.group(1), match.group(2)),
                               source.count("\n", 0, match.start()) + 1)
    return markers


def _tuple_lineno(index: _CodeIndex, name: str) -> Optional[int]:
    for node in index.modules["sim.compiled"].tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.lineno
    return None


#: The SM bodies the C core transcribes (with ``GTOScheduler.issue``).
_CORE_SPEC = ("step", "_try_issue", "next_event")


def _compiled_closure(index: _CodeIndex,
                      traversable: FrozenSet[str]) -> _EffectMap:
    """Effects of the compiled driver: ``run_compiled``, the gate
    functions (called by bare name, so invisible to receiver resolution
    and seeded explicitly) and every ``_Run`` method, short of the
    fallback delegation to the event engine."""
    comp = index.modules["sim.compiled"]
    seeds = [("comp", name) for name in ("run_compiled",) + _GATE_FUNCTIONS]
    seeds += [("comp", mname) for info in comp.classes.values()
              for mname in sorted(info.methods)]
    return _closure(index, seeds, traversable,
                    skip=frozenset({("gpu", "_run_event")}))


def _covered(name: str, guardsets: Set[FrozenSet[str]], gate: Set[str],
             bypassed: Sequence[str]) -> bool:
    """Is a reference-only effect gated: mentioned by ``compiled_refusal``,
    named in ``_BYPASSED_SM_ATTRS``, or reachable only under a guard that
    ``compiled_refusal`` checks?"""
    if _last(name) in gate or name in bypassed:
        return True
    return bool(guardsets) and all(
        g and {_last(t) for t in g} & gate for g in guardsets)


# ----------------------------------------------------------------------
# Audit (a): issue-loop completeness
# ----------------------------------------------------------------------
def _audit_issue_loop(index: _CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    sm_path = index.modules["sim.sm"].path
    reference = _closure(index, [("sm", "step"), ("sm", "next_event")],
                         frozenset({"sm", "sched"}))
    compiled = _compiled_closure(
        index, frozenset({"gpu", "comp", "sm", "sched"}))
    gate = _gate_mentions(index, "comp", "compiled_refusal")
    folded_used: Set[Tuple[str, str]] = set()

    for (ns, name), guardsets in sorted(reference.items()):
        if ns not in ("sm", "sched") or (ns, name) in compiled:
            continue
        if _covered(name, guardsets, gate, index.config.bypassed_sm_attrs):
            continue
        head = (ns, name.split(".", 1)[0])
        if head in _CORE_FOLDED:
            folded_used.add(head)
            continue
        findings.append(_finding(
            "fast-gate-missing", HIGH,
            f"reference step path touches {ns}.{name} but the compiled "
            f"core neither reproduces it nor gates on it: add it to "
            f"compiled_refusal's checks (or the audited fold table "
            f"_CORE_FOLDED) before trusting the compiled backend", sm_path))
    for (ns, name), reason in _CORE_FOLDED.items():
        if (ns, name) not in folded_used:
            findings.append(_finding(
                "fast-gate-fold-stale", MEDIUM,
                f"fold-table entry {ns}.{name} no longer appears in the "
                f"reference-minus-compiled effect diff; drop it "
                f"(recorded rationale: {reason})", sm_path))
    return findings


# ----------------------------------------------------------------------
# Audit (b): compiled-core bypass completeness
# ----------------------------------------------------------------------
def _audit_compiled(index: _CodeIndex) -> List[Finding]:
    """The C core behind ``run_compiled`` reimplements the SM surface the
    event engine dispatches dynamically: the event loop's step /
    next-event / accumulate calls and the hooks the bodies it transcribes
    (``SM.step``, ``SM._try_issue``, ``SM.next_event``) call on their own
    SM.  Every such method the compiled driver never calls must appear in
    ``_BYPASSED_SM_ATTRS`` so ``compiled_refusal``'s instance-dict scan
    routes instrumented SMs back to the reference engine instead of
    letting the C core silently ignore the override.

    A method the C source marks ``transcribes
    StreamingMultiprocessor.<name>`` counts as bypassed even where the
    driver calls it: the core runs it itself for the calls it does not
    return as ops (``_finish_warp`` for a non-final EXIT,
    ``_settle_transits`` for a batch that does not flip the scheduler
    slots), and skips a wrapper there.  So does a marked method such a
    body calls on its SM (``_attach_warps``).  Both ways: a marked method
    missing from the gate is HIGH, and a marker naming no method the
    engines dispatch is MEDIUM."""
    findings: List[Finding] = []
    config = index.config
    comp = index.modules["sim.compiled"]
    line = _tuple_lineno(index, "_BYPASSED_SM_ATTRS")
    sm_methods = set(index.cls("sm").methods) if index.cls("sm") else set()

    def sm_refs(effects: _EffectMap) -> Set[str]:
        return {name for (ns, name) in effects
                if ns == "sm" and "." not in name and name in sm_methods}

    # Where each dynamic dispatch happens, so a finding names the call
    # site: the event loop's per-SM entry points (which the C core
    # replaces wholesale) first, then the hooks the transcribed bodies
    # call on their own SM (which the C core inlines).
    loop = _closure(index, [("gpu", "_run_event"), ("gpu", "_finish_run")],
                    frozenset({"gpu"}))
    sites: Dict[str, str] = dict.fromkeys(
        sorted(sm_refs(loop)), "the event loop (GPU._run_event)")
    guards: Dict[str, Set[FrozenSet[str]]] = {
        name: set(loop[("sm", name)]) for name in sites}
    for body in _CORE_SPEC:
        for node in index.lookup("sm", body):
            effects = index.summarize(node, "sm")
            for name in sorted(sm_refs(effects)):
                sites.setdefault(name, f"SM.{body}")
                guards.setdefault(name, set()).update(effects[("sm", name)])
    compiled = _compiled_closure(index, frozenset({"gpu", "comp"}))
    markers = {name: lineno for (__, name), lineno in _core_markers(
        config.core_source, (_SM_CLASS,)).items()}
    # A transcribed body's own calls on its SM run in the core too where
    # the C source marks them (the settle's _attach_warps); the unmarked
    # ones stay with the ops (the final EXIT's retire_cta).
    for body in sorted(set(markers) & set(sites)):
        for node in index.lookup("sm", body):
            effects = index.summarize(node, "sm")
            for name in sorted(sm_refs(effects) & set(markers)):
                sites.setdefault(name, f"SM.{body}")
                guards.setdefault(name, set()).update(effects[("sm", name)])
    transcribed = set(markers) & set(sites)
    bypassed = (set(sites) - sm_refs(compiled)) | transcribed
    gate = _gate_mentions(index, "comp", "compiled_refusal")

    for name in sorted(bypassed):
        if _covered(name, guards[name], gate, config.bypassed_sm_attrs):
            continue
        why = (f"the C core transcribes it ({CORE_C_FILE} marks "
               f"'transcribes {_SM_CLASS}.{name}')" if name in transcribed
               else "the compiled driver never calls it")
        findings.append(_finding(
            "compiled-gate-missing", HIGH,
            f"{sites[name]} dispatches SM.{name} dynamically but {why}, so "
            f"the C core would silently ignore an instance-level wrapper "
            f"— add {name!r} to _BYPASSED_SM_ATTRS", comp.path, line))
    for name in sorted(set(markers) - transcribed):
        findings.append(_finding(
            "core-transcription-unadmitted", MEDIUM,
            f"{CORE_C_FILE} marks 'transcribes {_SM_CLASS}.{name}' but the "
            f"engines dispatch no SM method {name!r}: the marker is stale "
            f"and gates nothing", f"src/repro/{CORE_C_FILE}",
            markers[name]))
    for name in config.bypassed_sm_attrs:
        if name not in sm_methods:
            findings.append(_finding(
                "compiled-gate-stale", MEDIUM,
                f"_BYPASSED_SM_ATTRS entry {name!r} is not a "
                f"StreamingMultiprocessor method; the instance-dict scan "
                f"checks a name that cannot be shadowed", comp.path, line))
        elif name not in bypassed:
            findings.append(_finding(
                "compiled-gate-candidate", LOW,
                f"_BYPASSED_SM_ATTRS entry {name!r} is no longer derived "
                f"as Python-engine-only; the gate is wider than the C "
                f"core requires (narrowing candidate)", comp.path, line))
    return findings


# ----------------------------------------------------------------------
# Audit (c): policy gate derivation
# ----------------------------------------------------------------------
def _policy_ns_names(effects: _EffectMap) -> Set[str]:
    return {name for (ns, name) in effects
            if ns == "policy" and "." not in name}


def _engine_policy_refs(index: _CodeIndex) -> Set[str]:
    """Base-policy attributes the Python engines reference (SM and GPU)."""
    refs: Set[str] = set()
    for ns in ("sm", "gpu"):
        info = index.cls(ns)
        if info is None:
            continue
        for nodes in info.methods.values():
            for node in nodes:
                refs |= _policy_ns_names(index.summarize(node, ns))
    return refs


def _policy_closure(index: _CodeIndex, names: Set[str],
                    family: Dict[str, Tuple[str, _ClassInfo]],
                    stop: Set[str] = frozenset()) -> Set[str]:
    """``names`` plus every policy name the base or override bodies of a
    reached method reference (``stop`` names are reached, not entered)."""
    reached = set(names)
    work = deque(sorted(reached - set(stop)))
    while work:
        mname = work.popleft()
        for _, info in family.values():
            for node in info.methods.get(mname, []):
                for name in _policy_ns_names(index.summarize(node, "policy")):
                    if name not in reached:
                        reached.add(name)
                        if name not in stop:
                            work.append(name)
    return reached


def _served_policy_refs(index: _CodeIndex,
                        family: Dict[str, Tuple[str, _ClassInfo]]
                        ) -> Set[str]:
    """Policy names the compiled driver's served ops reach: its own calls
    through the GPU/SM surface (``_finish_warp`` -> ``on_cta_finished``
    ...), closed over every policy body those calls run in Python."""
    comp = index.modules["sim.compiled"]
    seeds = [("comp", "run_compiled")]
    seeds += [("comp", mname) for info in comp.classes.values()
              for mname in sorted(info.methods)]
    reached = _closure(index, seeds, frozenset({"gpu", "comp", "sm"}),
                       skip=frozenset({("gpu", "_run_event")}))
    return _policy_closure(index, _policy_ns_names(reached), family)


def _audit_inert(index: _CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    config = index.config
    comp_path = index.modules["sim.compiled"].path
    line = _tuple_lineno(index, "_INERT_POLICY_ATTRS")
    family = index.policy_classes()
    base = family.get("RegisterFilePolicy")
    if base is None:
        return [_finding("inert-audit-error", HIGH,
                         "RegisterFilePolicy not found in audited sources",
                         comp_path, line)]
    base_names = base[1].body_names

    # Names the gate functions inspect directly on the instance.
    direct: Set[str] = set()
    for fn in _GATE_FUNCTIONS:
        for node in index.lookup("comp", fn):
            direct |= _policy_ns_names(index.summarize(node, None))
    skipped = direct | set(_INERT_EXEMPT)

    # Required = hooks the Python engines reach but no served op does (the
    # C core replaces their call sites), plus every policy body the C
    # source marks as transcribed; closed over the bodies of required
    # methods (an override may route through further base hooks) short of
    # what the served ops run in Python anyway.
    served = _served_policy_refs(index, family)
    markers = _core_markers(config.core_source, family)
    transcribed = {name for _, name in markers}
    required = ((_engine_policy_refs(index) - served) | transcribed) \
        & base_names
    required = (_policy_closure(index, required, family, stop=served)
                & base_names) - skipped

    for name in sorted(required - set(config.inert_policy_attrs)):
        origin = ("the C core transcribes a body of it"
                  if name in transcribed else
                  "the Python engines call it where the C core does not")
        findings.append(_finding(
            "inert-gate-missing", HIGH,
            f"policy attribute {name!r} is part of the surface the "
            f"C core runs itself ({origin}) but policy_refusal does not "
            f"check it; a subclass overriding {name!r} would be silently "
            f"ignored on the compiled core — add it to "
            f"_INERT_POLICY_ATTRS", comp_path, line))
    for name in config.inert_policy_attrs:
        if name not in base_names:
            findings.append(_finding(
                "inert-gate-stale", MEDIUM,
                f"_INERT_POLICY_ATTRS entry {name!r} is not defined on "
                f"RegisterFilePolicy; the identity check compares a name "
                f"that cannot be overridden", comp_path, line))

    # The bodies the gate admits, checked against the markers both ways.
    admitted = {("RegisterFilePolicy", name)
                for name in config.inert_policy_attrs if name in base_names}
    for cname, name in config.core_policy_bodies:
        if (name not in config.inert_policy_attrs or cname not in family
                or name not in family[cname][1].body_names):
            findings.append(_finding(
                "inert-gate-stale", MEDIUM,
                f"_CORE_POLICY_BODIES entry {cname}.{name} is not a body "
                f"{cname} defines for a name _INERT_POLICY_ATTRS checks; "
                f"the gate never admits it", comp_path, line))
        else:
            admitted.add((cname, name))
    for cname, name in sorted(admitted - set(markers)):
        findings.append(_finding(
            "core-transcription-missing", HIGH,
            f"the gate admits {cname}.{name} but {CORE_C_FILE} marks no "
            f"'transcribes {cname}.{name}': the C core would run another "
            f"body, or none, where the Python engines run this one",
            comp_path, line))
    for cname, name in sorted(set(markers) - admitted):
        findings.append(_finding(
            "core-transcription-unadmitted", MEDIUM,
            f"{CORE_C_FILE} marks 'transcribes {cname}.{name}' but the "
            f"gate admits no such body (_INERT_POLICY_ATTRS / "
            f"_CORE_POLICY_BODIES): the transcription is dead or its gate "
            f"entry is missing", f"src/repro/{CORE_C_FILE}",
            markers[(cname, name)]))

    # Per-subclass: which policies the gate admits (every checked override
    # resolves to an admitted body) and which entries no subclass
    # overrides.
    checked = set(config.inert_policy_attrs) | skipped
    overridden_entries: Set[str] = set()
    for cname, (mkey, info) in sorted(family.items()):
        if cname == "RegisterFilePolicy":
            continue
        chain: List[str] = []
        cursor: Optional[str] = cname
        while cursor and cursor in family and cursor not in chain:
            chain.append(cursor)
            cursor = next((b for b in family[cursor][1].bases
                           if b in family), None)
        definer: Dict[str, str] = {}
        for owner in reversed(chain):
            for name in family[owner][1].body_names:
                definer[name] = owner
        base_overrides = {name for name, owner in definer.items()
                          if owner != "RegisterFilePolicy"
                          and name in base_names
                          and not name.startswith("__")} - set(_INERT_EXEMPT)
        entries = base_overrides & set(config.inert_policy_attrs)
        overridden_entries |= entries
        bodies = sorted(name for name in entries
                        if (definer[name], name) in admitted)
        # An override of a name the gate reads directly (needs_issue_hook)
        # pairs with a transcribed non-base body.
        refused = bool(entries - set(bodies)) or bool(
            (base_overrides & checked) - entries and not bodies)
        if not refused:
            hooks = sorted(base_overrides - checked)
            extra = (f" and the transcribed bodies ({', '.join(bodies)})"
                     if bodies else "")
            findings.append(_finding(
                "inert-policy-passthrough", LOW,
                f"{cname} overrides only served hooks "
                f"({', '.join(hooks) or 'none'}){extra} and runs on the "
                f"compiled core", index.modules[mkey].path, info.lineno))
    for name in config.inert_policy_attrs:
        if name in base_names and name not in overridden_entries:
            findings.append(_finding(
                "inert-gate-candidate", LOW,
                f"_INERT_POLICY_ATTRS entry {name!r} is overridden by no "
                f"current subclass; still required, but no shipped policy "
                f"is refused for it", comp_path, line))
    return findings


# ----------------------------------------------------------------------
# Audit (d): launch/arbiter determinism
# ----------------------------------------------------------------------
def _audit_determinism(index: _CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    for key, module in sorted(index.modules.items()):
        for found in lint_source(index.config.sources[key], module.path):
            if "iteration" in found.tag:
                findings.append(_finding(
                    found.tag, found.severity,
                    f"{found.message} (iteration-order hazard on an "
                    f"audited engine module)", module.path, found.line))
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("sorted", "min", "max")):
                continue
            key_lambda = next(
                (kw.value for kw in node.keywords
                 if kw.arg == "key" and isinstance(kw.value, ast.Lambda)),
                None)
            if key_lambda is None:
                continue
            attrs = {child.attr for child in ast.walk(key_lambda)
                     if isinstance(child, ast.Attribute)}
            if not attrs & _UNIQUE_ID_ATTRS:
                findings.append(_finding(
                    "unstable-tiebreak", MEDIUM,
                    f"{node.func.id}() key lambda orders on "
                    f"{sorted(attrs) or 'no attributes'} — no unique-id "
                    f"tie-break (cta_id / sm_id / index ...); equal keys "
                    f"make dispatch order an implementation detail",
                    module.path, node.lineno))
    return findings


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def audit_effects(config: Optional[EffectsConfig] = None) -> FindingReport:
    """Run all engine-equivalence audits; returns the combined report."""
    if config is None:
        config = default_effects_config()
    index = _CodeIndex(config)
    report = FindingReport()
    for finding in (_audit_issue_loop(index) + _audit_compiled(index)
                    + _audit_inert(index) + _audit_determinism(index)):
        report.add(finding)
    return report
