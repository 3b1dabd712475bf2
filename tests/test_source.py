"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "polycount"

# the most lines src/polycount/*.py may hold; a change that deletes code lowers it, and one
# that has to raise it says why in CHANGES.md
SRC_LINE_BUDGET = 4387


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so invariants must raise InvariantError instead
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources found under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_stays_within_its_line_budget():
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, f"src/polycount holds {lines} lines, over the budget of {SRC_LINE_BUDGET}"


def _float_uses(tree):
    """Line numbers of float literals, float(...), np.float*, dtype=float, weights= and sqrt calls.

    A weights= keyword (np.bincount's) makes a float64 histogram.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float(...)"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("np", "numpy") and node.attr.startswith(("float", "sqrt")):
                yield node.lineno, f"{node.value.id}.{node.attr}"
            elif node.value.id == "math" and node.attr == "sqrt":
                yield node.lineno, "math.sqrt"
        elif isinstance(node, ast.keyword) and node.arg == "dtype":
            if isinstance(node.value, ast.Name) and node.value.id == "float":
                yield node.value.lineno, "dtype=float"
        elif isinstance(node, ast.keyword) and node.arg == "weights":
            yield node.value.lineno, "weights="


def test_no_floating_point_in_the_package():
    # every value path is exact integer arithmetic; a float BLAS shortcut would round
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {what}" for line, what in _float_uses(tree)]
    assert found == []


def test_float_check_flags_a_weighted_bincount():
    # np.bincount(..., weights=...) returns float64 even for integer weights
    assert list(_float_uses(ast.parse("h = np.bincount(x, weights=w)\n"))) == [(1, "weights=")]


_CONSTRUCTORS = ("zeros", "empty", "ones", "full", "array")


def _block_loop_allocations(tree, name="orbit_blocks"):
    """(line, call) for each numpy array constructor called in a `for` loop of the FieldCtx method `name`.

    Constructors are np.zeros, np.empty, np.ones, np.full, np.array and every
    np.*_like.  None when the method is missing, so a rename cannot pass unseen.
    """
    methods = [
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "FieldCtx"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    if not methods:
        return None
    return [found for loop in methods[0].body if isinstance(loop, ast.For) for found in _allocations(loop)]


def _allocations(tree):
    """(line, call) for each numpy array constructor called under tree."""
    found = []
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
            continue
        if func.value.id in ("np", "numpy") and (func.attr in _CONSTRUCTORS or func.attr.endswith("_like")):
            found.append((node.lineno, f"{func.value.id}.{func.attr}"))
    return found


def _walk_consumers(tree):
    """Every `for` loop over the blocks of an orbit walk: orbit_blocks(...), parity_blocks(...) or trace_blocks(...)."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Attribute)
        and node.iter.func.attr in ("orbit_blocks", "parity_blocks", "trace_blocks")
    ]


def test_orbit_block_loop_allocates_nothing():
    # every block is filled in place in buffers made once per walk; a fresh array per
    # block page-faults anew on each one
    tree = ast.parse((SRC / "fields.py").read_text())
    for name in ("orbit_blocks", "parity_blocks"):
        assert _block_loop_allocations(tree, name) == [], name


def test_block_loop_check_flags_a_planted_allocation():
    planted = """
class FieldCtx:
    def orbit_blocks(self, giants):
        buf = np.empty(8)
        for b in giants:
            out = np.zeros(8)
            yield np.empty_like(out)
"""
    assert _block_loop_allocations(ast.parse(planted)) == [(6, "np.zeros"), (7, "np.empty_like")]
    assert _block_loop_allocations(ast.parse("def orbit_blocks(): pass\n")) is None


def test_walk_consumers_allocate_nothing_per_block():
    # the oracle, the listing, log tables and trace histograms all consume the walk; a
    # fresh array per block in any of them page-faults anew on each block
    loops, found = 0, []
    for path in sorted(SRC.glob("*.py")):
        for loop in _walk_consumers(ast.parse(path.read_text())):
            loops += 1
            found += [f"{path.name}:{line}: {call}" for line, call in _allocations(loop)]
    assert loops >= 7 and found == []


def test_walk_consumer_check_flags_a_planted_allocation():
    planted = """
def consume(tower):
    for start, traces in tower.trace_blocks(1):
        row = np.zeros(2)
    for start, labels in range(3):
        np.empty(1)
"""
    loops = _walk_consumers(ast.parse(planted))
    assert len(loops) == 1 and _allocations(loops[0]) == [(4, "np.zeros")]


def test_field_element_internals_stay_in_fields():
    # an element's representation is private to fields.py: elsewhere, build elements
    # through FieldCtx and read them through .index
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "fields.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "coords":
                found.append(f"{path.name}:{node.lineno}: .coords")
            elif isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                if name == "FieldElement":
                    found.append(f"{path.name}:{node.lineno}: FieldElement(...)")
    assert found == []


def _missing_probe_targets(tree):
    """Names that a perfbench probe module patches and polycount lacks.

    fn(module, "attr", ...) needs polycount.<module>.<attr>; meth(module.Class,
    ("attr", ...), ...) needs each attr in Class.__dict__, which is where the
    tracer looks a method up.
    """
    missing = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) >= 2):
            continue
        target, names = node.args[:2]
        if node.func.id == "fn" and isinstance(target, ast.Name):
            if not hasattr(importlib.import_module(f"polycount.{target.id}"), names.value):
                missing.append(f"{target.id}.{names.value}")
        elif node.func.id == "meth" and isinstance(target, ast.Attribute):
            cls = getattr(importlib.import_module(f"polycount.{target.value.id}"), target.attr, None)
            missing += [
                f"{target.value.id}.{target.attr}.{name.value}"
                for name in names.elts
                if cls is None or name.value not in vars(cls)
            ]
    return missing


def test_every_name_the_benchmark_probes_exists():
    # perfbench/probes.py patches these by name in every traced round; it is parsed
    # here, not imported, so the check needs none of the harness
    tree = ast.parse((ROOT / "perfbench" / "probes.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and getattr(node.func, "id", None)]
    assert sum(call.func.id in ("fn", "meth") for call in calls) > 20
    assert _missing_probe_targets(tree) == []


def test_probe_check_flags_a_missing_name():
    planted = """
meth(fields.FieldCtx, ("dlog", "gone"), "fields.dlog")
meth(fields.NoSuchClass, ("dlog",), "x")
meth(fields.TowerCtx, ("build_field",), "x")
fn(fields, "no_such_function", "x")
fn(fields, "build_field", "fields.build_field")
"""
    assert _missing_probe_targets(ast.parse(planted)) == [
        "fields.FieldCtx.gone",
        "fields.NoSuchClass.dlog",
        "fields.TowerCtx.build_field",
        "fields.no_such_function",
    ]


def test_every_mutant_fragment_occurs_once():
    # tests/mutants.py patches each fragment in a copy of the tree; a moved fragment would stop testing anything
    import mutants

    found = []
    for mutant in mutants.MUTANTS:
        count = (ROOT / mutant.file).read_text().count(mutant.fragment)
        if count != 1:
            found.append(f"{mutant.name}: {count} occurrences in {mutant.file}")
        found += [f"{mutant.name}: no test file {name}" for name in mutant.tests if not (ROOT / name).is_file()]
    assert found == []


def _bound_names(tree):
    """Every name the top level of a module binds by import, def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    return names


def _public_surface(tree):
    """The public names a package __init__ binds, leaving out its submodules."""
    return {name for name in _bound_names(tree) if not name.startswith("_") and not (SRC / f"{name}.py").is_file()}


def _readme_entry_points():
    """The names README's "Library entry points" block imports from polycount."""
    section = (ROOT / "README.md").read_text().split("## Library entry points", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    return {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "polycount"
        for alias in node.names
    }


def test_top_level_is_readme_entry_points():
    # README documents the whole top level; everything else is imported from its module
    tree = ast.parse((SRC / "__init__.py").read_text())
    entry_points = _readme_entry_points()
    assert len(entry_points) == 17
    assert _public_surface(tree) == entry_points | {"clear_caches"}
    assert "__all__" not in _bound_names(tree)


def test_surface_check_flags_a_planted_import():
    source = (SRC / "__init__.py").read_text()
    planted = ast.parse(source + "from .cyclotomic import CycInt\nfrom . import verify\n")
    assert _public_surface(planted) - _public_surface(ast.parse(source)) == {"CycInt"}
