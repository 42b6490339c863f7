"""Every top-level function and class of the package is reached from code
outside the tests, unless the allowlist below gives a reason.

The roots are the scripts, the bench files other than its tests, and the
module-level statements of the package (its tables, and ``cli``'s
``__main__`` call); ``__init__`` re-exports are not roots.  A definition is
reached when a root or an already reached definition names it: as a name, an
attribute, an imported name or a dotted string such as the bench tracer's
``"local.bucket_hash"``.  Names are matched by their last component, so a
local variable of the same name also counts: the check can miss a test-only
definition, never flag a reached one.  A twin that only tests call fails
here, so it is deleted rather than kept beside the code path runs use.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "privlabel"

# module.name -> why it stays although only tests call it
TEST_ONLY = {
    "geometry.brute_force_best_connection": "acceptance gate: criterion 6's exhaustive optimum",
    "geometry.connection_scores": "acceptance gate: criterion 6 scores greedy and optimal maps",
    "geometry.ConnectionObjective": "acceptance gate: criterion 6's three objectives",
    "geometry.objective_value": "acceptance gate: the objective brute force maximizes",
    "geometry.similarity_from_distance": "acceptance gate: the similarity criterion 6 scores by",
    "simulate.verify_partition_invariance": "acceptance gate: criterion 7",
    "simulate.InvarianceResult": "acceptance gate: criterion 7's verdict",
    "shuffle.discrete_laplace_pmf": "reference: criterion 5c fits the distributed noise against it",
    "local.collision_average_mse": "reference: exact average MSE the collision curve is checked against",
    "local.collision_indicator_moments": "reference: the moments the exact MSE references are built from",
    "analysis.predict_labeling_accuracy": "ROADMAP item 2 reports it per iteration; criterion 8 checks it",
    "analysis.collision_entry_std": "ROADMAP item 2: collision's per-entry variance; criterion 8 imports it",
    "core.count_gap": "ROADMAP item 2 replaces it with a vectorized per-bucket margin",
    "shuffle.expected_noise_messages": "ROADMAP item 3 writes the message counts into results schema 2",
    "results.read_results": "ROADMAP item 3: the reader that accepts schema 1 and 2",
    "central.worst_case_neighbor_pair": "ROADMAP item 4: the audit's neighbouring datasets; criterion 9",
    "central.verify_sensitivity": "ROADMAP item 4: the audit's code path or deleted by it",
    "central.pipeline_aggregate": "ROADMAP item 4: the aggregate verify_sensitivity compares",
    "central.log_density_ratio": "ROADMAP item 4: the audit's code path or deleted by it",
}


def _names(node) -> set[str]:
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            last = sub.value.rsplit(".", 1)[-1]
            if last.isidentifier():
                used.add(last)
    return used


def _roots_and_definitions() -> tuple[set[str], dict[str, set[str]]]:
    """(names the roots use, module.name -> names its definition uses)."""
    roots, definitions = set(), {}
    scripts = list((ROOT / "scripts").glob("*.py"))
    scripts += [p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")]
    for path in scripts:
        roots |= _names(ast.parse(path.read_text(encoding="utf-8")))
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions[f"{path.stem}.{node.name}"] = _names(node) - {node.name}
            else:
                roots |= _names(node)
    return roots, definitions


def _test_only() -> set[str]:
    roots, definitions = _roots_and_definitions()
    reached, named = set(), roots
    while named:
        new = {name for name in definitions.keys() - reached if name.split(".", 1)[1] in named}
        reached |= new
        named = set().union(*(definitions[name] for name in new))
    return definitions.keys() - reached


def test_every_definition_is_reached_outside_tests():
    unexplained = sorted(_test_only() - TEST_ONLY.keys())
    assert unexplained == [], f"only tests call {unexplained}: delete them or allowlist them with a reason"


def test_allowlist_names_only_test_only_definitions():
    # an entry whose name is gone, or that runs now reach, is stale
    assert sorted(TEST_ONLY.keys() - _test_only()) == []
