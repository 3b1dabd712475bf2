"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polycount"


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so invariants must raise InvariantError instead
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no sources found under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


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


def _block_loop_allocations(tree):
    """(line, call) for each numpy array constructor called in a `for` loop of FieldCtx.orbit_blocks.

    Constructors are np.zeros, np.empty, np.ones, np.full, np.array and every
    np.*_like.  None when the method is missing, so a rename cannot pass unseen.
    """
    methods = [
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "FieldCtx"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "orbit_blocks"
    ]
    if not methods:
        return None
    found = []
    for loop in (node for node in methods[0].body if isinstance(node, ast.For)):
        for node in ast.walk(loop):
            func = node.func if isinstance(node, ast.Call) else None
            if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
                continue
            if func.value.id in ("np", "numpy") and (func.attr in _CONSTRUCTORS or func.attr.endswith("_like")):
                found.append((node.lineno, f"{func.value.id}.{func.attr}"))
    return found


def test_orbit_block_loop_allocates_nothing():
    # every block is filled in place in buffers made once per walk; a fresh array per
    # block page-faults anew on each one
    assert _block_loop_allocations(ast.parse((SRC / "fields.py").read_text())) == []


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
