#!/usr/bin/env python
"""Layering lint: the import boundaries between the planes of ``repro``.

Every boundary is one row of :data:`RULES`: the modules it applies to,
the import prefixes it forbids -- or, for a pure layer, the only
``repro`` prefixes it allows -- any exempt modules, and the reason the
message shows.  One :mod:`ast` walker checks every module under the
source tree against every row; only absolute imports are checked
(relative ones stay inside their package).  The rows:

- ``policy`` -- ``repro.futures.policies`` holds pure decision rules and
  may import only value types (``repro.common``, task/ref types) and
  itself; policies receive frozen views, never live runtime state.
- ``streaming`` -- the core must work with the optional streaming tier
  absent; only the tier and the applications built on it import it.
- ``live`` / ``profile`` -- the live ops plane and the self-profiler
  observe the data plane from outside (``attach_sampler``, instance
  shadowing through the ``self_profiler`` slot), so the observed planes
  never import them: zero cost when off, which the golden digests pin.
- ``plan`` / ``plan-callers`` -- the planner is a pure lowering library
  over value types, and the mechanisms it chooses between never import
  it (``repro.shuffle.select``, the legacy wrapper, excepted).
- ``metrics`` -- ``repro.obs`` builds on ``repro.metrics`` (counters,
  histograms, result tables), so ``repro.metrics`` never imports it
  back; spans and Chrome traces live in ``repro.obs.trace``.

:func:`check_registry_coverage` additionally requires every declared
policy kind to have a registered built-in.  Run as
``python tools/check_layering.py [SRC_ROOT]`` (CI does; nonzero exit on
violation).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

#: The source tree checked by default, relative to the repo root.
SRC_ROOT = Path("src") / "repro"

#: The observed planes: data plane, simulator core, shuffle, fabric.
_OBSERVED = ("repro.futures", "repro.simcore", "repro.shuffle", "repro.cluster")


class Rule(NamedTuple):
    """One import boundary."""

    name: str
    #: Modules (package prefixes) the rule applies to.
    scope: Tuple[str, ...]
    #: Why, shown in each violation message.
    reason: str
    #: Import prefixes modules in scope must not import.
    forbidden: Tuple[str, ...] = ()
    #: If set, the only ``repro`` import prefixes allowed in scope.
    allowed: Optional[Tuple[str, ...]] = None
    #: Modules in scope the rule does not apply to.
    exempt: Tuple[str, ...] = ()


RULES: Tuple[Rule, ...] = (
    Rule(
        "policy",
        scope=("repro.futures.policies",),
        allowed=(
            "repro.common",
            "repro.futures.task",
            "repro.futures.refs",
            "repro.futures.policies",
        ),
        reason="the policy plane is mechanism-free",
    ),
    Rule(
        "streaming",
        scope=("repro",),
        forbidden=("repro.streaming",),
        exempt=("repro.streaming", "repro.aggregation"),
        reason="only the tier and the applications built on it may import "
        "the streaming tier; the core must stay streaming-free",
    ),
    Rule(
        "live",
        scope=("repro.futures", "repro.simcore", "repro.shuffle"),
        forbidden=("repro.obs.live",),
        reason="the data plane must not depend on the live ops plane; use "
        "the duck-typed attach_sampler hook",
    ),
    Rule(
        "profile",
        scope=_OBSERVED,
        forbidden=("repro.obs.profile",),
        reason="the observed planes must not depend on the self-profiler; "
        "it attaches by instance shadowing via the duck-typed "
        "self_profiler slot",
    ),
    Rule(
        "plan",
        scope=("repro.plan",),
        allowed=("repro.common", "repro.plan"),
        reason="repro.plan is a pure lowering library",
    ),
    Rule(
        "plan-callers",
        scope=_OBSERVED,
        forbidden=("repro.plan",),
        exempt=("repro.shuffle.select",),
        reason="mechanism layers must not depend on the planning layer; "
        "only repro.shuffle.select may, as the legacy wrapper",
    ),
    Rule(
        "metrics",
        scope=("repro.metrics",),
        forbidden=("repro.obs",),
        reason="repro.obs builds on repro.metrics, not the other way round",
    ),
)


def _under(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _breaks(rule: Rule, target: str) -> bool:
    if rule.allowed is not None:
        return _under(target, ("repro",)) and not _under(target, rule.allowed)
    return _under(target, rule.forbidden)


def _module_name(path: Path, src_root: Path) -> str:
    """Dotted module name of ``path`` relative to ``src_root``'s parent
    (``src/repro/streaming/job.py`` -> ``repro.streaming.job``)."""
    parts = list(path.relative_to(src_root.parent).with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def check(src_root: Path, *names: str) -> List[str]:
    """Violations (``file:line: imports 'x' (rule: reason)``) of the
    rules named (all of :data:`RULES` when none are) under ``src_root``."""
    rules = [rule for rule in RULES if not names or rule.name in names]
    violations: List[str] = []
    for path in sorted(src_root.rglob("*.py")):
        module = _module_name(path, src_root)
        active = [
            rule
            for rule in rules
            if _under(module, rule.scope) and not _under(module, rule.exempt)
        ]
        if not active:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module or ""]
            else:
                continue
            for target in targets:
                for rule in active:
                    if _breaks(rule, target):
                        violations.append(
                            f"{path}:{node.lineno}: imports {target!r} "
                            f"({rule.name}: {rule.reason})"
                        )
    return violations


def check_registry_coverage(root: Path) -> List[str]:
    """Every declared policy kind must have >= 1 registered built-in.

    Walks ``registry.py`` with :mod:`ast`, reads the ``POLICY_KINDS``
    tuple and all module-level ``register_policy(kind, name, ...)``
    calls, and reports kinds with no built-in.  This pins the plane's
    completeness contract as kinds are added (the autoscale kind joined
    placement/memory/spill/dispatch this way): a new kind without a
    registered default would fail config resolution at runtime, so the
    lint catches it before any test builds a Runtime.
    """
    registry = root / "registry.py"
    if not registry.is_file():
        return [f"{registry}: missing (policy registry moved?)"]
    tree = ast.parse(registry.read_text(), filename=str(registry))
    declared: List[str] = []
    registered: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            if isinstance(node, ast.AnnAssign):
                targets = [node.target.id] if isinstance(
                    node.target, ast.Name
                ) else []
            else:
                targets = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
            if "POLICY_KINDS" in targets and isinstance(
                node.value, (ast.Tuple, ast.List)
            ):
                declared = [
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
        elif isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")
            if name == "register_policy" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(
                    first.value, str
                ):
                    registered.append(first.value)
    if not declared:
        return [f"{registry}: POLICY_KINDS tuple not found"]
    return [
        f"{registry}: policy kind {kind!r} has no registered built-in"
        for kind in declared
        if kind not in registered
    ]


def main(argv: List[str] = None) -> int:
    """Entry point: check the tree, print violations, exit nonzero."""
    args = list(sys.argv[1:] if argv is None else argv)
    src_root = Path(args[0]) if args else SRC_ROOT
    if not src_root.exists():
        print(f"layering: no such tree {src_root}", file=sys.stderr)
        return 2
    violations = check(src_root)
    # Registry completeness applies to the real tree, or to any tree
    # that ships a policy registry.
    policies = src_root / "futures" / "policies"
    if src_root == SRC_ROOT or (policies / "registry.py").is_file():
        violations += check_registry_coverage(policies)
    for violation in violations:
        print(violation)
    if violations:
        print(f"layering: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"layering: {src_root} clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
