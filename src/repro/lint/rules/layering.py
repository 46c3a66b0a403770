"""Architecture rules: the layer map, import cycles, sim-core purity.

The layer map lives in ``pyproject.toml`` as ``[[tool.repro-lint.layer]]``
tables, lowest layer first.  A module belongs to the first layer whose
package prefix matches; modules outside every layer (the ``repro``
package root, scripts, benchmarks) are unconstrained.

* ``arch-layering`` — a module-level import from a lower-layer module
  into a higher layer is a back-edge: the dependency arrow must point
  downward (or sideways, within one layer).  Deferred (function-body)
  and ``TYPE_CHECKING`` imports are exempt — they are the sanctioned
  escape hatches for runtime plugins and annotations.
* ``arch-cycle`` — strongly-connected components of the module-level
  internal import graph.  Cycles are reported once per cycle at the
  lexicographically first member.
* ``arch-sim-reach`` — no module of the deterministic simulation core
  (``sim-core`` prefixes in config) may import asyncio or call
  wall-clock functions, directly or through any chain of module-level
  imports that stays inside the core's downward closure.  This is what
  keeps bit-identical replay honest: the sim core cannot observe host
  time even by accident of transitive import.
* ``arch-sim-stats-read`` (same family) — no sim-core module reads a
  field of the simulator's write-only counters (``horizon_stats``):
  the simulation increments them, tests and docs read them, so they can
  never steer a run.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.engine import Finding, LintConfig, ProjectRule, \
    register_project
from repro.lint.project import ImportFact, ProjectIndex


def strongly_connected(graph: dict[str, list[str]]) -> list[list[str]]:
    """Tarjan's SCC, iterative; only components of size > 1 returned."""
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[list[str]] = []
    counter = [0]

    for root in sorted(graph):
        if root in index_of:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, edge_index = work[-1]
            if edge_index == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            targets = graph.get(node, [])
            advanced = False
            for position in range(edge_index, len(targets)):
                target = targets[position]
                if target not in graph:
                    continue
                if target not in index_of:
                    work[-1] = (node, position + 1)
                    work.append((target, 0))
                    advanced = True
                    break
                if target in on_stack:
                    low[node] = min(low[node], index_of[target])
            if advanced:
                continue
            work.pop()
            if low[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    components.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


@register_project
class LayeringRule(ProjectRule):
    id = "arch-layering"
    description = "module-level import against the layer map's arrows"
    hint = ("depend downward only; invert the edge via an interface "
            "module in the lower layer, or defer the import into the "
            "function that needs it")

    def check_project(self, index: ProjectIndex,
                      config: LintConfig) -> Iterable[Finding]:
        if not config.layers:
            return
        for facts in index.modules.values():
            source_layer = config.layer_of(facts.module)
            if source_layer is None:
                continue
            seen: set[tuple[str, int]] = set()
            for imp in facts.toplevel_imports():
                target = index.resolve_internal(imp.target)
                if target is None or target == facts.module:
                    continue
                # ``from x import a, b`` records one fact per name; one
                # finding per (target module, line) is enough.
                if (target, imp.lineno) in seen:
                    continue
                seen.add((target, imp.lineno))
                target_layer = config.layer_of(target)
                if target_layer is None:
                    continue
                if target_layer[0] > source_layer[0]:
                    yield self.finding(
                        facts.path, imp.lineno,
                        f"{facts.module} (layer {source_layer[1]}) imports "
                        f"{target} (layer {target_layer[1]}): dependency "
                        "arrow points upward")


@register_project
class ImportCycleRule(ProjectRule):
    id = "arch-cycle"
    description = "module-level import cycle inside the project"
    hint = ("break the cycle: move the shared piece below both modules "
            "or defer one import into the using function")

    def check_project(self, index: ProjectIndex,
                      config: LintConfig) -> Iterable[Finding]:
        edges = index.import_edges()
        graph = {module: sorted({target for target, _ in targets})
                 for module, targets in edges.items()}
        for component in strongly_connected(graph):
            head = component[0]
            facts = index.modules[index.by_module[head]]
            lineno = 1
            for target, imp in edges.get(head, []):
                if target in component:
                    lineno = imp.lineno
                    break
            yield self.finding(
                facts.path, lineno,
                "import cycle: " + " -> ".join([*component, head]))


@register_project
class SimCoreReachRule(ProjectRule):
    id = "arch-sim-reach"
    ids = ("arch-sim-reach", "arch-sim-stats-read")
    description = ("sim-core module reaches asyncio or wall-clock code "
                   "at import time, or reads a write-only counter")
    hint = ("the deterministic core must stay clock-free: move the "
            "asyncio/wall-clock code out of the core's import closure "
            "or out of the sim-core prefix list")
    stats_hint = ("sim code only increments the counters (`+= 1`); read "
                  "them from tests, docs or the benchmark harness")

    def check_project(self, index: ProjectIndex,
                      config: LintConfig) -> Iterable[Finding]:
        if not config.sim_core:
            return
        for facts in sorted(index.modules.values(),
                            key=lambda f: f.module):
            if not config.in_sim_core(facts.module):
                continue
            for lineno in facts.stats_reads:
                yield self.finding(
                    facts.path, lineno,
                    f"sim-core module {facts.module} reads a write-only "
                    "counter", rule_id="arch-sim-stats-read",
                    hint=self.stats_hint)
        # taint: a module is tainted if it imports asyncio or calls
        # wall-clock functions anywhere; propagate backward over the
        # module-level import graph so importing a tainted module is
        # itself tainting.
        edges = index.import_edges()
        direct_taint: dict[str, str] = {}
        for facts in index.modules.values():
            if facts.imports_asyncio:
                direct_taint[facts.module] = "imports asyncio"
            elif facts.has_wallclock:
                direct_taint[facts.module] = "calls wall-clock functions"

        reach: dict[str, tuple[str, str] | None] = {}

        def tainted_via(module: str, trail: set[str]) -> tuple[str, str] | None:
            """(tainted module, why) reachable from here, or None."""
            if module in reach:
                return reach[module]
            if module in direct_taint:
                reach[module] = (module, direct_taint[module])
                return reach[module]
            if module in trail:
                return None     # cycle: resolved by the caller chain
            trail.add(module)
            for target, _ in edges.get(module, []):
                hit = tainted_via(target, trail)
                if hit is not None:
                    reach[module] = hit
                    trail.discard(module)
                    return hit
            trail.discard(module)
            reach[module] = None
            return None

        for facts in sorted(index.modules.values(),
                            key=lambda f: f.module):
            if not config.in_sim_core(facts.module):
                continue
            if facts.module in direct_taint:
                lineno = 1
                if facts.imports_asyncio:
                    for imp in facts.toplevel_imports():
                        if imp.target.split(".")[0] == "asyncio":
                            lineno = imp.lineno
                            break
                yield self.finding(
                    facts.path, lineno,
                    f"sim-core module {facts.module} "
                    f"{direct_taint[facts.module]}")
                continue
            for target, imp in edges.get(facts.module, []):
                hit = tainted_via(target, set())
                if hit is not None:
                    culprit, why = hit
                    yield self.finding(
                        facts.path, imp.lineno,
                        f"sim-core module {facts.module} reaches "
                        f"{culprit} (which {why}) via import of {target}")
                    break       # one finding per module is enough
