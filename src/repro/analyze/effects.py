"""Static engine-equivalence auditor: effect summaries for the fast-path gates.

The fused (``SM._step_fast``) and compiled (``run_compiled``) backends
are only sound because hand-maintained gates route every instrumented or
specialised run back to a slower engine: ``fast_step_eligible``,
``policy_inert`` / ``_INERT_POLICY_ATTRS`` and ``compiled_run_eligible`` /
``_BYPASSED_SM_ATTRS``.  Nothing used to *verify* those lists — a new hook
read on the reference path, or a new policy override outside the checked
surface, silently diverged the fast paths instead of disabling them.

This module parses the simulator source (no simulation is run) into
per-method **effect summaries** — which attributes a method reads or
writes on which receiver, which methods it calls, and under which guard
conditions — then closes them over the call graph and audits the gates:

* **Fused-path completeness** — every effect of the reference step closure
  (``SM.step`` + scheduler ``issue`` + ``_try_issue``) that the fused
  closure (``fast_step_eligible`` + ``_bind_fast_path`` + ``_step_fast``)
  does not reproduce must be *covered*: mentioned by ``fast_step_eligible``,
  reachable only under a gate-checked guard (e.g. ``_div_forks`` behind
  ``self._wt``), or recorded in the audited fold table (``_FAST_FOLDED``,
  effects the fast step precomputes rather than re-reads).  Anything else
  is a HIGH ``fast-gate-missing`` finding.
* **Compiled bypass completeness** — SM methods the Python engines invoke
  dynamically (the event loop's calls plus the fused step's own
  ``self.<method>`` calls, the loop the C core transcribes) but the
  compiled driver never calls must all appear in ``_BYPASSED_SM_ATTRS``
  (or be barred by ``fast_step_eligible``'s instance-dict scan), so an
  instance-level wrapper can never be skipped.
* **Policy inertness derivation** — the engine-reachable base-policy
  surface is derived from the source and closed over base/override method
  bodies; every derived name must be checked by ``policy_inert`` (via
  ``_INERT_POLICY_ATTRS`` or its direct attribute reads), every subclass
  that overrides any base hook must override at least one *checked* one,
  and stale or never-overridden entries are reported.
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
from repro.sim.compiled import (_BYPASSED_SM_ATTRS, _INERT_POLICY_ATTRS,
                                instance_overrides)
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

#: Reference-only effects the fused step intentionally *folds* instead of
#: re-reading, with the equivalence argument.  An entry that stops showing
#: up in the reference-minus-fused diff is reported stale (MEDIUM) so the
#: table cannot rot.
_FAST_FOLDED: Dict[Tuple[str, str], str] = {
    ("sm", "_alu_lat"): (
        "issue latency is precomputed per static instruction into "
        "_meta[9] at table-build time; the fused loop reads meta[9]"),
    ("sm", "_sfu_lat"): (
        "issue latency is precomputed per static instruction into "
        "_meta[9] at table-build time; the fused loop reads meta[9]"),
    ("sm", "_shmem_lat"): (
        "issue latency is precomputed per static instruction into "
        "_meta[9] at table-build time; the fused loop reads meta[9]"),
    ("sched", "issue"): (
        "GTOScheduler.issue is inlined into _step_fast verbatim "
        "(greedy-then-oldest scan over the same _ready/_blocked state); "
        "fast_step_eligible pins the scheduler type to GTOScheduler"),
    ("sched", "_note_sleep"): (
        "the telemetry-free sleep computation is folded into the fused "
        "scan-failure path; sched.telemetry is gate-checked"),
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

    ``sources`` maps module keys (``sim.sm`` ...) to python source text;
    the self-test overrides individual entries to inject faults without
    touching the tree.  The gate tuples default to the live values
    imported from :mod:`repro.sim.compiled`, so editing the real gate is
    immediately visible to the audit.
    """

    sources: Mapping[str, str]
    paths: Mapping[str, str]
    bypassed_sm_attrs: Tuple[str, ...] = _BYPASSED_SM_ATTRS
    inert_policy_attrs: Tuple[str, ...] = _INERT_POLICY_ATTRS


def default_effects_config() -> EffectsConfig:
    sources = {}
    paths = {}
    for key, rel in MODULE_FILES.items():
        path = _REPRO_ROOT / rel
        sources[key] = path.read_text()
        paths[key] = f"src/repro/{rel}"
    return EffectsConfig(sources=sources, paths=paths)


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


def _tuple_lineno(index: _CodeIndex, name: str) -> Optional[int]:
    for node in index.modules["sim.compiled"].tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return node.lineno
    return None


# ----------------------------------------------------------------------
# Audit (a): fused fast-step completeness
# ----------------------------------------------------------------------
def _audit_fused(index: _CodeIndex) -> List[Finding]:
    findings: List[Finding] = []
    sm_path = index.modules["sim.sm"].path
    traversable = frozenset({"sm", "sched"})
    reference = _closure(index, [("sm", "step"), ("sm", "next_event")],
                         traversable)
    fused = _closure(index, [("sm", "_step_fast"), ("sm", "next_event_fast"),
                             ("sm", "_bind_fast_path"),
                             ("sm", "fast_step_eligible")], traversable)
    gate = _gate_mentions(index, "sm", "fast_step_eligible")
    folded_used: Set[Tuple[str, str]] = set()

    for (ns, name), guardsets in sorted(reference.items()):
        if ns not in ("sm", "sched") or (ns, name) in fused:
            continue
        if _last(name) in gate:
            continue
        if (ns, name) in _FAST_FOLDED:
            folded_used.add((ns, name))
            continue
        if guardsets and all(
                g and {_last(t) for t in g} & gate for g in guardsets):
            continue  # only reachable when a gate-checked hook is armed
        findings.append(_finding(
            "fast-gate-missing", HIGH,
            f"reference step path touches {ns}.{name} but the fused "
            f"_step_fast neither reproduces it nor gates on it: add it to "
            f"fast_step_eligible's checks (or the audited fold table) "
            f"before trusting the fused backend", sm_path))
    for (ns, name), reason in _FAST_FOLDED.items():
        if (ns, name) not in folded_used:
            findings.append(_finding(
                "fast-gate-fold-stale", MEDIUM,
                f"fold-table entry {ns}.{name} no longer appears in the "
                f"reference-minus-fused effect diff; drop it "
                f"(recorded rationale: {reason})", sm_path))
    return findings


# ----------------------------------------------------------------------
# Audit (b): compiled-core bypass completeness
# ----------------------------------------------------------------------
def _audit_compiled(index: _CodeIndex) -> List[Finding]:
    """The C core behind ``run_compiled`` reimplements the SM surface the
    Python engines dispatch dynamically: the event loop's step /
    next-event / accumulate calls and the hooks ``_step_fast`` (the loop
    the C core transcribes) calls on its own SM.  Every such method the
    compiled driver never calls must appear in ``_BYPASSED_SM_ATTRS`` so
    ``compiled_run_eligible``'s instance-dict scan routes instrumented
    SMs back to a Python backend instead of letting the C core silently
    ignore the override."""
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
    # replaces wholesale) first, then the hooks the fused step calls on
    # its own SM (which the C core inlines).
    sites: Dict[str, str] = dict.fromkeys(sorted(sm_refs(_closure(
        index, [("gpu", "_run_event"), ("gpu", "_finish_run")],
        frozenset({"gpu"})))), "the event loop (GPU._run_event)")
    for step in ("_step_fast", "next_event_fast"):
        for node in index.lookup("sm", step):
            for name in sorted(sm_refs(index.summarize(node, "sm"))):
                sites.setdefault(name, f"SM.{step}")
    # policy_inert is called by bare name (invisible to receiver
    # resolution); seed it explicitly.
    seeds = [("comp", name) for name in ("run_compiled",
                                         "compiled_run_eligible",
                                         "policy_inert")]
    seeds += [("comp", mname) for info in comp.classes.values()
              for mname in sorted(info.methods)]
    compiled = _closure(index, seeds, frozenset({"gpu", "comp"}),
                        skip=frozenset({("gpu", "_run_event")}))
    bypassed = set(sites) - sm_refs(compiled)
    covered = set(config.bypassed_sm_attrs) | _gate_mentions(
        index, "sm", "fast_step_eligible")

    for name in sorted(bypassed - covered):
        findings.append(_finding(
            "compiled-gate-missing", HIGH,
            f"{sites[name]} dispatches SM.{name} dynamically but the "
            f"compiled driver never calls it (the C core would silently "
            f"ignore an instance-level wrapper) — add {name!r} to "
            f"_BYPASSED_SM_ATTRS", comp.path, line))
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
# Audit (c): policy inertness derivation
# ----------------------------------------------------------------------
def _policy_ns_names(effects: _EffectMap) -> Set[str]:
    return {name for (ns, name) in effects
            if ns == "policy" and "." not in name}


def _engine_policy_refs(index: _CodeIndex) -> Set[str]:
    """Base-policy attributes referenced anywhere in the engine layer."""
    refs: Set[str] = set()
    for ns in ("sm", "gpu"):
        info = index.cls(ns)
        if info is None:
            continue
        for nodes in info.methods.values():
            for node in nodes:
                refs |= _policy_ns_names(index.summarize(node, ns))
    for node in index.modules["sim.compiled"].functions.values():
        refs |= _policy_ns_names(index.summarize(node, None))
    return refs


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
    for fn in ("policy_inert", "compiled_run_eligible"):
        for node in index.lookup("comp", fn):
            direct |= _policy_ns_names(index.summarize(node, None))
    covered = set(config.inert_policy_attrs) | direct | set(_INERT_EXEMPT)

    # Required = engine-referenced base surface, closed over the bodies of
    # required-named methods in the base class and every subclass (an
    # override of a required hook may route through further base hooks).
    required = {name for name in _engine_policy_refs(index)
                if name in base_names} - direct - set(_INERT_EXEMPT)
    changed = True
    while changed:
        changed = False
        for cname, (_, info) in family.items():
            for mname, nodes in info.methods.items():
                if mname not in required:
                    continue
                for node in nodes:
                    for name in _policy_ns_names(
                            index.summarize(node, "policy")):
                        if (name in base_names and name not in required
                                and name not in direct
                                and name not in _INERT_EXEMPT):
                            required.add(name)
                            changed = True

    for name in sorted(required - set(config.inert_policy_attrs)):
        findings.append(_finding(
            "inert-gate-missing", HIGH,
            f"base-policy attribute {name!r} is engine-reachable but "
            f"policy_inert does not check it; a subclass overriding only "
            f"{name!r} would wrongly pass the inertness gate — add it to "
            f"_INERT_POLICY_ATTRS", comp_path, line))
    for name in config.inert_policy_attrs:
        if name not in base_names:
            findings.append(_finding(
                "inert-gate-stale", MEDIUM,
                f"_INERT_POLICY_ATTRS entry {name!r} is not defined on "
                f"RegisterFilePolicy; the identity check compares a name "
                f"that cannot be overridden", comp_path, line))

    # Per-subclass: overriding any base hook without touching a checked
    # one means policy_inert cannot tell the subclass from the base.
    overridden_entries: Set[str] = set()
    for cname, (mkey, info) in sorted(family.items()):
        if cname == "RegisterFilePolicy":
            continue
        inherited: Set[str] = set()
        cursor: Optional[str] = cname
        seen_chain: Set[str] = set()
        while cursor and cursor in family and cursor not in seen_chain:
            seen_chain.add(cursor)
            if cursor != "RegisterFilePolicy":
                inherited |= family[cursor][1].body_names
            cursor = next((b for b in family[cursor][1].bases
                           if b in family), None)
        base_overrides = (inherited & base_names) - set(_INERT_EXEMPT)
        checked = base_overrides & covered
        overridden_entries |= base_overrides & set(config.inert_policy_attrs)
        path = index.modules[mkey].path
        if base_overrides and not checked:
            findings.append(_finding(
                "inert-unguarded-policy", HIGH,
                f"{cname} overrides base-policy surface "
                f"({', '.join(sorted(base_overrides))}) but none of it is "
                f"checked by policy_inert; the compiled backend would "
                f"treat it as the base no-op policy", path,
                info.lineno))
        elif not base_overrides:
            findings.append(_finding(
                "inert-policy-passthrough", LOW,
                f"{cname} overrides no base-policy behaviour and passes "
                f"policy_inert by design", path, info.lineno))
    for name in config.inert_policy_attrs:
        if name in base_names and name not in overridden_entries:
            findings.append(_finding(
                "inert-gate-candidate", LOW,
                f"_INERT_POLICY_ATTRS entry {name!r} is overridden by no "
                f"current subclass; still engine-reachable, but a "
                f"narrowing candidate if the surface shrinks", comp_path,
                line))
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
    for finding in (_audit_fused(index) + _audit_compiled(index)
                    + _audit_inert(index) + _audit_determinism(index)):
        report.add(finding)
    return report
