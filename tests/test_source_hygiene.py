"""Static checks over the package source: no unused top-level import (in
the tests either), no bare `assert` (python -O strips them, and a cross-check must raise
instead), no `cache`/`lru_cache` decorator, no module-level dict that a
function writes to and no `__init__` that sets up a memo of its own
(derived state belongs to the object it derives from, as a cached
property, not to the process), no top-level function or class that only the tests call, and
no trace of the per-element ring table machinery that the operation
arrays replaced, and no frozenset where chains, residues and classes are
sorted index rows and the distant graph is a boolean matrix."""

import ast
import re
from collections import Counter
from pathlib import Path

import chaingeom

SOURCES = sorted(Path(chaingeom.__file__).resolve().parent.glob("*.py"))

MAX_BARE_ASSERTS = 0

# the one module-level memo left: build_ring's table of constructed rings
ALLOWED_MODULE_MEMOS = {("rings.py", "_RING_CACHE")}

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

# definitions the program itself need not name, with the reason
ALLOWED_UNREACHED = {
    # the exhaustive table check the tests run today, and every scenario
    # will run once it reports the tables it reads
    ("rings.py", "verify_axioms"),
}


# the per-element family hooks and the table mirrors beside the operation
# arrays, the tuple views included: a ring builds _add_a, _mul_a and _neg_a
# and derives the rest; the frozenset transport of a partition, which
# compares rows now; and the per-block pair helper of the Desargues scan,
# whose kernel takes the ordered pairs once; and the slab constants and
# packed set bits of the batch kernels, which take their slabs from
# projline.slabs and SCAN_SLAB; and the distant graph's own copy of the
# GL2 solve, which is projline.mat_inverses; and the hand-rolled memos of
# the opposite ring and the chain rows, and the second-conjugate loop, which
# are cached properties and Subfield.conjugates now; and the dual line's
# twins of the line's kernels and attributes, which are the one Line and
# its kernels on their dual side; and the distant graph's distances from
# the far point and the residue's point-index blocks, which nothing read:
# a distance is a BFS over the adjacency matrix, and the residue's blocks
# are its coordinate rows; and the per-word gather of every length's
# formula values and the covariance check's own flat tables, since each
# word kernel runs on the words of one length and the ring holds its flat
# tables; and the grouping of a sweep's words by length and the scatter of
# its checks back into word order, since every sweep walks index ranges
# by length in slabs (projline.index_slabs)
DELETED_NAMES = re.compile(r"\b(_struct_\w+|_place_\w+|_padded|_mul_cols|_pair_left|_pair_right"
                           r"|_add_t|_mul_t|_neg_t"
                           r"|transported_partition|_ordered_pairs"
                           r"|_SET_BITS|_COV_PAIRS|_COV_SOLUTIONS|_SLAB|_distant_pairs"
                           r"|_chain_rows|_opposite|chain_rows|second_conjugate"
                           r"|col_images|enumerate_dual_points|_checked_orbit|_dual_seed"
                           r"|point_keys|point_index|dual_keys|dual_index|dual_perms"
                           r"|dual_chains\w*|dist_from_infinity|point_blocks"
                           r"|_by_length|_flat_tables|_length_groups|_word_report)\b")

# the modules whose sets of blocks, chains and classes are sorted index
# rows, and the one whose distant graph is a boolean matrix
ROW_MODULES = ("chains.py", "compat.py", "isomorph.py", "projline.py")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads;
    `from __future__` imports are exempt."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def cache_decorators(tree: ast.Module) -> list[str]:
    """Functions decorated with cache or lru_cache, bare, called or reached
    as an attribute (functools.cache)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(
                    target, "id", None)
                if name in ("cache", "lru_cache"):
                    found.append(node.name)
    return found


def _module_dicts(tree: ast.Module) -> set[str]:
    """Names a module binds at top level to a dict display, a dict
    comprehension, a dict() call or a value annotated as a dict."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value, annotation = node.targets, node.value, None
        elif isinstance(node, ast.AnnAssign):
            targets, value, annotation = [node.target], node.value, node.annotation
        else:
            continue
        is_dict = (isinstance(value, (ast.Dict, ast.DictComp))
                   or (isinstance(value, ast.Call)
                       and getattr(value.func, "id", None) == "dict")
                   or (annotation is not None and "dict" in ast.unparse(annotation).lower()))
        if is_dict:
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def module_memo_writes(tree: ast.Module) -> list[str]:
    """Module-level dicts that some function body writes to, by NAME[...] =
    or NAME.setdefault(...)."""
    dicts = _module_dicts(tree)
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for t in targets:
                if (isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)
                        and t.value.id in dicts):
                    found.add(t.value.id)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setdefault"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id in dicts):
                found.add(node.func.value.id)
    return sorted(found)


def init_memos(tree: ast.Module) -> list[str]:
    """Class.attr for each attribute that an __init__ sets to a literal
    None, {} or [] on self, plainly or annotated: the start of a
    hand-rolled memo."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for init in cls.body:
            if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            for node in ast.walk(init):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign):
                    targets, value = [node.target], node.value
                else:
                    continue
                empty = ((isinstance(value, ast.Constant) and value.value is None)
                         or (isinstance(value, ast.Dict) and not value.keys)
                         or (isinstance(value, ast.List) and not value.elts))
                found += [f"{cls.name}.{t.attr}" for t in targets
                          if empty and isinstance(t, ast.Attribute)
                          and isinstance(t.value, ast.Name) and t.value.id == "self"]
    return found


def _named(tree: ast.AST) -> Counter:
    """How often each name is read in tree, as a plain name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreached_definitions(modules: dict[str, ast.Module], others: list[ast.Module]) -> list:
    """(module, name) of each top-level function or class of the modules
    whose name no module, nor any tree of others, reads outside the
    definition itself.  An import alone does not count as a use."""
    named = {mod: _named(tree) for mod, tree in modules.items()}
    outside = set().union(*map(_named, others))
    found = []
    for mod, tree in modules.items():
        elsewhere = outside.union(*(n for m, n in named.items() if m != mod))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in elsewhere
                    and named[mod][node.name] == _named(node)[node.name]):
                found.append((mod, node.name))
    return found


def test_scan_finds_unreached_definitions():
    modules = {
        "a.py": ast.parse("def used(): pass\n"
                          "def recursive(n): return recursive(n - 1)\n"
                          "def unused(): pass\n"
                          "class Kept: pass\n"
                          "def caller(): return used() + b.via_attr()\n"),
        "b.py": ast.parse("from a import unused\n"
                          "def via_attr(): return Kept\n"
                          "def by_script(): pass\n"),
    }
    scripts = [ast.parse("import b\nb.by_script()\n")]
    assert unreached_definitions(modules, scripts) == [("a.py", "recursive"),
                                                       ("a.py", "unused"),
                                                       ("a.py", "caller")]


def test_scan_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os\nfrom typing import Optional, Any\n"
                     "def f(x: Optional[int]) -> int:\n    return x\n")
    assert unused_imports(tree) == ["os", "Any"]


def test_scan_finds_cache_decorators():
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                     "@cache\ndef a(x): return x\n"
                     "@functools.lru_cache(maxsize=None)\ndef b(x): return x\n"
                     "@lru_cache\ndef c(x): return x\n"
                     "@staticmethod\ndef d(x): return x\n"
                     "class K:\n    @functools.cache\n    def e(self): return 1\n")
    assert cache_decorators(tree) == ["a", "b", "c", "e"]


def test_scan_finds_module_memo_writes():
    tree = ast.parse("MEMO = {}\nTABLE: dict = dict()\nCONST = {'a': 1}\nLIST = []\n"
                     "def f(k):\n    MEMO[k] = k\n    local = {}\n    local[k] = 1\n"
                     "def g(k):\n    return TABLE.setdefault(k, []) or CONST[k]\n"
                     "def h(k):\n    LIST[0] = k\n")
    assert module_memo_writes(tree) == ["MEMO", "TABLE"]


def test_scan_finds_init_memos():
    tree = ast.parse("class A:\n    def __init__(self, x):\n        self._memo = None\n"
                     "        self._rows: dict = {}\n        self.items = []\n"
                     "        self.x = x\n        self.full = [x]\n        self.zero = 0\n"
                     "        other._seen = None\n        local = {}\n"
                     "    def reset(self):\n        self._memo = None\n"
                     "class B(A):\n    def __init__(self):\n        self.table: dict = {1: 2}\n"
                     "        self.none: Optional[int] = None\n")
    assert init_memos(tree) == ["A._memo", "A._rows", "A.items", "B.none"]


def test_scan_finds_deleted_names():
    text = ("x = R._mul_cols[b]\ndef _struct_mul(self, a, b): pass\n"
            "t = self._place_add; p = R._pair_left\n# _padded digits\n"
            "R._mul_a, R._pair_right_key, R.canonical_pair_left\n"
            "from chaingeom.isomorph import transported_partition\n"
            "i, j = _ordered_pairs(len(pts)); ordered_pairs = 1\n"
            "bits = _SET_BITS[t]; step = _COV_PAIRS + _COV_SOLUTIONS\n"
            "budget = projline.SCAN_SLAB or compat._SLAB\n"
            "s = R._add_t[a][R._neg_t[b]]; p = R._mul_t[a]; gf.add_t[a]\n"
            "adj = _distant_pairs(R, pts); mat_inverses(R, mats)\n"
            "self._opposite = None; R.opposite; geom._chain_rows[True] = rows\n"
            "rows = geom.chain_rows(True); test_chain_rows_are_sorted(g)\n"
            "K2 = second_conjugate(R, K); subfield_in_opposite(K)\n"
            "keys = col_images(R, keys, gens); enumerate_dual_points(R)\n"
            "_checked_orbit(R, start); geom._dual_seed; geom.dual.keys\n"
            "geom.point_keys[geom.point_index(p)]; geom.dual_keys, geom.dual_index(q)\n"
            "geom.dual_perms; geom.dual_chains, geom.dual_chains_at_infinity\n"
            "word_dual_points(R); test_dual_chains_through(g)\n"
            "g.dist_from_infinity[p]; res.point_blocks; blocks_at(rows, i)\n"
            "a = _by_length(lengths, [R.one, a2]); _length_groups(letters, lengths)\n"
            "tables = _flat_tables(R); R._add_f, R._mul_f\n"
            "rep = _word_report(R, letters, lengths, order, grouped, witness)\n")
    assert DELETED_NAMES.findall(text) == ["_mul_cols", "_struct_mul", "_place_add",
                                           "_pair_left", "_padded", "transported_partition",
                                           "_ordered_pairs", "_SET_BITS", "_COV_PAIRS",
                                           "_COV_SOLUTIONS", "_SLAB", "_add_t", "_neg_t",
                                           "_mul_t", "_distant_pairs", "_opposite",
                                           "_chain_rows", "chain_rows", "second_conjugate",
                                           "col_images", "enumerate_dual_points",
                                           "_checked_orbit", "_dual_seed", "point_keys",
                                           "point_index", "dual_keys", "dual_index",
                                           "dual_perms", "dual_chains",
                                           "dual_chains_at_infinity", "dist_from_infinity",
                                           "point_blocks", "_by_length", "_length_groups",
                                           "_flat_tables", "_word_report"]


def test_no_deleted_table_names():
    """Neither the package nor the tests name a deleted table or hook."""
    found = {f"{path.parent.name}/{path.name}": names
             for path in SOURCES + TESTS if path.resolve() != Path(__file__).resolve()
             for names in [DELETED_NAMES.findall(path.read_text())] if names}
    assert found == {}


def frozenset_calls(text: str) -> list[int]:
    """The line numbers of every frozenset( in a source text."""
    return [i for i, line in enumerate(text.splitlines(), 1) if "frozenset(" in line]


def test_scan_finds_frozenset_calls():
    text = "x = frozenset(a)\ny = set(b)\n# frozenset({0, 1})\nz = frozenset\n"
    assert frozenset_calls(text) == [1, 3]


def test_no_frozensets_in_the_row_modules():
    """Chains, residue blocks and compatibility classes are sorted index
    rows from the orbit engine to the derived plane, and the distant graph
    is its boolean matrix: the modules that handle them build no
    frozenset."""
    found = {path.name: lines for path in SOURCES if path.name in ROW_MODULES
             for lines in [frozenset_calls(path.read_text())] if lines}
    assert [p.name for p in SOURCES if p.name in ROW_MODULES] == sorted(ROW_MODULES)
    assert found == {}


def test_no_unused_top_level_imports():
    found = {f"{path.parent.name}/{path.name}": names
             for path in [p for p in SOURCES if p.name != "__init__.py"] + TESTS
             for names in [unused_imports(_parse(path))] if names}
    assert found == {}


def test_bare_assert_count():
    counts = {path.name: sum(isinstance(n, ast.Assert) for n in ast.walk(_parse(path)))
              for path in SOURCES}
    assert sum(counts.values()) <= MAX_BARE_ASSERTS, counts


def test_no_cache_decorators():
    found = {path.name: names for path in SOURCES
             for names in [cache_decorators(_parse(path))] if names}
    assert found == {}


def test_no_memos_set_up_in_init():
    """A derived value is a cached property of its owner: no __init__ of
    the package starts a memo of None, {} or [] on self."""
    found = {path.name: names for path in SOURCES
             for names in [init_memos(_parse(path))] if names}
    assert found == {}


def test_no_module_level_memos():
    found = {path.name: names for path in SOURCES
             for names in [[n for n in module_memo_writes(_parse(path))
                            if (path.name, n) not in ALLOWED_MODULE_MEMOS]] if names}
    assert found == {}


def test_every_definition_is_reached():
    """Each top-level function or class of the package is named by the
    package or the scripts, outside its own definition and __init__.py;
    one the tests alone call belongs in tests/reference.py or nowhere."""
    modules = {path.name: _parse(path) for path in SOURCES if path.name != "__init__.py"}
    found = [d for d in unreached_definitions(modules, [_parse(p) for p in SCRIPTS])
             if d not in ALLOWED_UNREACHED]
    assert found == []
