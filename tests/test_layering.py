"""The layering lint: the import boundaries between the planes.

Runs ``tools/check_layering.py`` (the CI step) over the real tree, then
over synthetic violations to prove each rule of its table bites.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _lint():
    spec = importlib.util.spec_from_file_location(
        "check_layering", REPO / "tools" / "check_layering.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(tmp_path, *packages):
    """A synthetic ``src/repro`` tree holding empty ``packages``."""
    src_root = tmp_path / "src" / "repro"
    for pkg in packages:
        (src_root / pkg).mkdir(parents=True)
        (src_root / pkg / "__init__.py").write_text("")
    (src_root / "__init__.py").write_text("")
    return src_root


def test_policy_plane_is_mechanism_free():
    lint = _lint()
    violations = lint.check(REPO / "src" / "repro", "policy")
    assert violations == []


def test_lint_catches_mechanism_imports(tmp_path):
    lint = _lint()
    src_root = _tree(tmp_path, "futures/policies")
    bad = src_root / "futures" / "policies" / "rogue.py"
    bad.write_text(
        textwrap.dedent(
            """
            import json
            from repro.common.ids import NodeId
            from repro.futures.runtime import Runtime
            from repro.futures import node_manager
            import repro.simcore
            from .sibling import helper
            """
        )
    )
    violations = lint.check(src_root, "policy")
    offending = [v.split("imports ")[1].split(" ")[0] for v in violations]
    assert offending == ["'repro.futures.runtime'", "'repro.futures'",
                        "'repro.simcore'"]


def test_registry_covers_every_policy_kind():
    """All declared kinds -- autoscale included -- have a built-in."""
    lint = _lint()
    root = REPO / "src" / "repro" / "futures" / "policies"
    assert lint.check_registry_coverage(root) == []


def test_registry_coverage_catches_missing_kind(tmp_path):
    lint = _lint()
    src_root = _tree(tmp_path, "futures/policies")
    policies = src_root / "futures" / "policies"
    (policies / "registry.py").write_text(
        textwrap.dedent(
            """
            POLICY_KINDS = ("placement", "autoscale")
            def register_policy(kind, name, factory):
                pass
            register_policy("placement", "default", None)
            """
        )
    )
    violations = lint.check_registry_coverage(policies)
    assert len(violations) == 1 and "'autoscale'" in violations[0]
    # A tree with a registry.py gets the coverage check from main() too.
    assert lint.main([str(src_root)]) == 1


def test_streaming_tier_is_not_imported_by_the_core():
    """Nothing in the data-plane core imports ``repro.streaming``."""
    lint = _lint()
    violations = lint.check(REPO / "src" / "repro", "streaming")
    assert violations == []


def test_streaming_isolation_catches_core_imports(tmp_path):
    """A synthetic core module importing the tier is flagged; the tier
    itself and the aggregation app stay exempt."""
    lint = _lint()
    src_root = _tree(tmp_path, "futures", "streaming", "aggregation")
    (src_root / "futures" / "rogue.py").write_text(
        textwrap.dedent(
            """
            import json
            from repro.streaming import RoundDriver
            import repro.streaming.job
            """
        )
    )
    (src_root / "streaming" / "internal.py").write_text(
        "from repro.streaming.rounds import RoundDriver\n"
    )
    (src_root / "aggregation" / "app.py").write_text(
        "from repro.streaming.rounds import drive_rounds\n"
    )
    violations = lint.check(src_root, "streaming")
    assert len(violations) == 2
    assert all("rogue.py" in v for v in violations)


def test_live_ops_plane_is_not_imported_by_the_data_plane():
    """``repro.futures`` / ``repro.simcore`` / ``repro.shuffle`` never
    import ``repro.obs.live`` -- the observer stays optional."""
    lint = _lint()
    violations = lint.check(REPO / "src" / "repro", "live")
    assert violations == []


def test_live_isolation_catches_data_plane_imports(tmp_path):
    """A synthetic data-plane module importing the live tier is
    flagged; the obs package itself stays exempt."""
    lint = _lint()
    src_root = _tree(tmp_path, "futures", "obs")
    (src_root / "futures" / "rogue.py").write_text(
        textwrap.dedent(
            """
            import json
            from repro.obs.live import TimeSeriesSampler
            import repro.obs.live.dashboard
            from repro.obs.events import EventBus
            """
        )
    )
    (src_root / "obs" / "cli.py").write_text(
        "from repro.obs.live import LiveDashboard\n"
    )
    violations = lint.check(src_root, "live")
    assert len(violations) == 2
    assert all("rogue.py" in v for v in violations)
    assert all("attach_sampler" in v for v in violations)


def test_lint_main_exit_codes(tmp_path, capsys):
    lint = _lint()
    src_root = _tree(tmp_path, "futures/policies")
    clean = src_root / "futures" / "policies"
    (clean / "ok.py").write_text("from repro.common.ids import NodeId\n")
    assert lint.main([str(src_root)]) == 0
    (clean / "bad.py").write_text("from repro.futures.scheduler import Scheduler\n")
    assert lint.main([str(src_root)]) == 1
    assert lint.main([str(tmp_path / "missing")]) == 2
    capsys.readouterr()


def test_self_profiler_is_not_imported_by_the_observed_planes():
    """``repro.futures`` / ``repro.simcore`` / ``repro.shuffle`` /
    ``repro.cluster`` never import ``repro.obs.profile`` -- the
    profiler observes by instance shadowing, so the observed planes
    must stay profiler-free (zero cost when off)."""
    lint = _lint()
    violations = lint.check(REPO / "src" / "repro", "profile")
    assert violations == []


def test_plan_layer_isolation_holds_in_the_real_tree():
    """``repro.plan`` imports no mechanism layer, and no mechanism
    layer (futures / simcore / cluster / shuffle, minus the legacy
    ``shuffle.select`` wrapper) imports ``repro.plan``."""
    lint = _lint()
    violations = lint.check(REPO / "src" / "repro", "plan", "plan-callers")
    assert violations == []


def test_plan_isolation_catches_both_directions(tmp_path):
    """A synthetic plan module importing the runtime is flagged, as is
    a shuffle variant importing the planner; ``shuffle.select`` and the
    call-site layers (jobs, dataframe) stay exempt."""
    lint = _lint()
    src_root = _tree(tmp_path, "plan", "shuffle", "jobs")
    (src_root / "plan" / "rogue.py").write_text(
        textwrap.dedent(
            """
            import math
            from repro.common.units import MB
            from repro.plan.profile import ClusterProfile
            from repro.futures.runtime import Runtime
            import repro.shuffle.push
            """
        )
    )
    (src_root / "shuffle" / "push.py").write_text(
        "from repro.plan import ShuffleExpr\n"
    )
    (src_root / "shuffle" / "select.py").write_text(
        "from repro.plan import empirical_variant\n"
    )
    (src_root / "jobs" / "manager.py").write_text(
        "from repro.plan import planner_for_runtime\n"
    )
    violations = lint.check(src_root, "plan", "plan-callers")
    assert len(violations) == 3
    assert sum("rogue.py" in v for v in violations) == 2
    assert sum("push.py" in v for v in violations) == 1


def test_profile_isolation_catches_observed_plane_imports(tmp_path):
    """A synthetic simcore module importing the profiler is flagged;
    the obs package (and the bench harness outside src/) stays exempt."""
    lint = _lint()
    src_root = _tree(tmp_path, "simcore", "cluster", "obs")
    (src_root / "simcore" / "rogue.py").write_text(
        textwrap.dedent(
            """
            import heapq
            from repro.obs.profile import SelfProfiler
            import repro.obs.profile.flame
            """
        )
    )
    (src_root / "cluster" / "rogue.py").write_text(
        "from repro.obs.profile.core import SelfProfiler\n"
    )
    (src_root / "obs" / "cli.py").write_text(
        "from repro.obs.profile import SelfProfiler\n"
    )
    violations = lint.check(src_root, "profile")
    assert len(violations) == 3
    assert all("rogue.py" in v for v in violations)
    assert all("self_profiler" in v for v in violations)


def test_metrics_does_not_import_obs_in_the_real_tree():
    """``repro.obs`` builds on ``repro.metrics``; nothing under
    ``repro.metrics`` imports ``repro.obs`` back."""
    lint = _lint()
    assert lint.check(REPO / "src" / "repro", "metrics") == []


def test_metrics_rule_catches_obs_imports(tmp_path):
    """Top-level and lazy (function-local) imports of ``repro.obs`` from
    ``repro.metrics`` are flagged; ``repro.obs`` importing
    ``repro.metrics`` is the allowed direction."""
    lint = _lint()
    src_root = _tree(tmp_path, "metrics", "obs")
    (src_root / "metrics" / "rogue.py").write_text(
        textwrap.dedent(
            """
            from repro.metrics.tables import ResultTable
            import repro.obs.events

            def spans(events):
                from repro.obs.trace import derive_spans
                return derive_spans(events)
            """
        )
    )
    (src_root / "obs" / "report.py").write_text(
        "from repro.metrics.tables import ResultTable\n"
    )
    violations = lint.check(src_root, "metrics")
    offending = [v.split("imports ")[1].split(" ")[0] for v in violations]
    assert offending == ["'repro.obs.events'", "'repro.obs.trace'"]
    assert all("rogue.py" in v for v in violations)
