"""The public surface of the package: exports, removed names and parameters,
unused imports, and one owner for each module-level constant."""

import ast
import inspect
import re
from collections import defaultdict
from pathlib import Path

import pytest

import divmax

SRC = Path(divmax.__file__).resolve().parent
REMOVED = (
    "RetryLimitError",
    "dispersion",
    "draw_subset",
    "in_polytope",
    "lift_to_base",
    "max_feasible_step",
    "polytope_min_slack",
    "randomized_round_cardinality",
)


def test_all_is_sorted_unique_and_resolves():
    names = divmax.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(divmax, name), name

# Options no pipeline caller needs: the negative-type verdict is computed
# once per DistanceMatrix, the relaxation and its oracle work at the
# matroid's rank with an iteration cap of ITER_CAP_SCALE * n * rank,
# rounding snaps and steps at TIGHT_TOL, the local search starts from the
# greedy basis and runs to a local optimum, the triangle check uses
# METRIC_TOL, and transforms are a field of the instance document.
REMOVED_PARAMETERS = {
    "solve_slice": ("alpha", "certificate", "max_iters"),
    "sweep_slices": ("certificate", "max_iters"),
    "greedy_basis_lmo": ("alpha",),
    "round": ("certificate", "tol"),
    "round_step": ("tol",),
    "local_search_half": ("seed_basis", "max_sweeps"),
    "gen_random_points": ("transforms",),
    "is_metric": ("tol",),
}


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    assert not hasattr(divmax, name)


@pytest.mark.parametrize("name", sorted(REMOVED_PARAMETERS))
def test_removed_parameter_is_gone(name):
    parameters = inspect.signature(getattr(divmax, name)).parameters
    assert set(REMOVED_PARAMETERS[name]) & set(parameters) == set()


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _constants(path: Path) -> set:
    """Module-level UPPER_CASE names the module assigns."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, ast.AnnAssign):
            targets.append(node.target)
    return {t.id for t in targets if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)}


def _tuples(path: Path) -> dict:
    """Module-level names the module binds to a tuple literal, with its value."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple):
            value = ast.literal_eval(node.value)
            out.update((t.id, value) for t in node.targets if isinstance(t, ast.Name))
    return out


def test_each_constant_has_one_owner():
    # One owner per name, and no module copies another module's tuple.
    owners, copies = defaultdict(list), defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        for name in _constants(path):
            owners[name].append(path.name)
        for name, value in _tuples(path).items():
            copies[value].add(f"{path.name}:{name}")
    assert {name: files for name, files in owners.items() if len(files) > 1} == {}
    assert {value: places for value, places in copies.items()
            if len({place.split(":")[0] for place in places}) > 1} == {}


def test_uniform_matroid_is_a_one_block_partition_matroid():
    m = divmax.UniformMatroid(4, 2)
    assert isinstance(m, divmax.PartitionMatroid)
    assert (m.kind, m.k, m.blocks, m.capacities) == ("uniform", 2, [(0, 1, 2, 3)], (2,))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_uniform_only_branch(path):
    assert not re.search(r"isinstance\([^()]*UniformMatroid", path.read_text(encoding="utf-8"))


MATROID_CLASSES = ("Matroid", "PartitionMatroid", "UniformMatroid", "GraphicMatroid", "ExplicitRankMatroid")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_each_matroid_kind_answers_its_own_queries(path):
    # A kind's queries are its own methods: no module tests for a matroid
    # class, and none of the retired incremental-oracle names is left.
    text = path.read_text(encoding="utf-8")
    assert not re.search(r"isinstance\([^()]*\b(%s)\b" % "|".join(MATROID_CLASSES), text)
    for name in ("incremental", "try_add", "rank_mask", "_feasible_swaps"):
        assert not re.search(rf"\b{name}\b", text), name


def test_baselines_import_no_concrete_matroid():
    tree = ast.parse((SRC / "baselines.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & set(MATROID_CLASSES[1:]) == set()


def test_derived_queries_are_overridden_only_by_closed_forms():
    # `Matroid` derives bases, swaps and `is_independent` from `_independent`;
    # partition bases and swaps and graphic swaps keep closed forms.  The one
    # subset search reads `_window_ranks`; graphic windows are cut instead.
    defined = {
        query: [name for name in MATROID_CLASSES if query in vars(getattr(divmax, name))]
        for query in ("_independent", "_bases", "_swap_mask", "is_independent", "_slack", "_window_ranks")
    }
    assert defined == {
        "_independent": ["Matroid", "GraphicMatroid", "ExplicitRankMatroid"],
        "_bases": ["Matroid", "PartitionMatroid"],
        "_swap_mask": ["Matroid", "PartitionMatroid", "GraphicMatroid"],
        "is_independent": ["Matroid"],
        "_slack": ["Matroid", "GraphicMatroid"],
        "_window_ranks": ["Matroid", "ExplicitRankMatroid"],
    }
