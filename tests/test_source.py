"""Checks on the package source itself."""

import ast
import importlib
import sys
from pathlib import Path

import hnnkit
from hnnkit.bs import BsOracle
from hnnkit.zd import ZdOracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hnnkit"
BENCH = ROOT / "bench"


def parsed_sources():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def test_no_assert_statements():
    # invariants raise VerificationError: an assert vanishes under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_are_stdlib_or_relative():
    # the package has no runtime dependencies; a third-party import would add one
    found = []
    for path, tree in parsed_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "hnnkit" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def referenced_names(tree):
    """Every name a module reads, as a bare name, an attribute or a string
    in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names.update(elt.value for elt in node.value.elts)
    return names


def test_no_unused_imports():
    # __init__.py imports only to re-export the public names
    found = []
    for path, tree in parsed_sources():
        if path.name == "__init__.py":
            continue
        used = referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in used]
    assert found == []


def test_no_orphaned_private_definitions():
    # a private helper that nothing in the package calls is dead code
    sources = parsed_sources()
    used = set().union(*(referenced_names(tree) for _, tree in sources))
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in sources
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in used
    ]
    assert found == []


def test_only_split_decomposes_on_the_left():
    # the carry rule of a normal form (which subgroup a syllable is split
    # by, and which way the carry is mapped) lives in calculus._split alone
    names = ("decompose_left_H", "decompose_left_K")
    found = [
        f"{path.name}:{node.lineno} {func.name}"
        for path, tree in parsed_sources()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and (path.name, func.name) != ("calculus.py", "_split")
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr in names
    ]
    assert found == []


def test_only_the_normal_form_steps_carry():
    # the right-to-left carry is calculus._carry, which normalize and
    # _nf_conjugate share, and _nf_conjugate splits one head; the rotation
    # scan of cyclic_reduce and the orbit BFS keep no carry of their own
    allowed = {("calculus.py", name) for name in ("_carry", "_nf_conjugate")}
    found = [
        f"{path.name}:{node.lineno} {func.name}"
        for path, tree in parsed_sources()
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and (path.name, func.name) not in allowed
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_split"
    ]
    assert found == []


def test_bs_rule_has_two_copies_the_protocol_and_the_kernels():
    # BsOracle runs integer kernels in place of the two loops of
    # calculus._carry and _seam, with the coset split and phi^+-1 done
    # inline.  So the BS rule has two copies, the oracle methods that the
    # loops call and the kernels: in bs.py only they (and BsParams' gcd
    # parts) divide, nothing outside bs.py floor-divides by an m or an n, as
    # phi does, and only the two loops dispatch, each to its own kernel
    sources = dict((path.name, tree) for path, tree in parsed_sources())
    kernels = {"_carry_kernel", "_seam_kernel"}
    protocol = {"in_H", "in_K", "phi", "phi_inv"} | {
        f"decompose_{side}_{sub}" for side in ("left", "right") for sub in "HK"
    }

    def divides(func):
        return any(
            isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mod, ast.FloorDiv))
            for node in ast.walk(func)
        )

    functions = [
        (name, func) for name, tree in sources.items() for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
    ]
    assert {func.name for name, func in functions if name == "bs.py" and divides(func)} == (
        protocol | kernels | {"__post_init__"}
    )
    def by_m_or_n(node):
        right = node.right
        if isinstance(right, ast.Call) and getattr(right.func, "id", None) == "abs":
            right = right.args[0]
        return (getattr(right, "id", None) or getattr(right, "attr", None)) in ("m", "n")

    assert [
        f"{name}:{node.lineno}" for name, tree in sources.items() if name != "bs.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv) and by_m_or_n(node)
    ] == []
    dispatch = {}
    for name, func in functions:
        for node in ast.walk(func):
            if isinstance(node, ast.Attribute) and node.attr.endswith(("_kernel", "_kernels")):
                dispatch.setdefault(f"{name} {func.name}", set()).add(node.attr)
    assert dispatch == {
        "calculus.py _carry": {"_kernels", "_carry_kernel"},
        "calculus.py _seam": {"_kernels", "_seam_kernel"},
        "bs.py __init_subclass__": {"_kernels"},
    }


def test_cyclic_reduce_reads_its_results_off_the_reduced_word():
    # each wrap pinch conjugates by the next syllable of the reduced word, so
    # the core and the conjugator are slices of it: no product, seam,
    # conjugate or inverse of words
    tree = dict((path.name, tree) for path, tree in parsed_sources())["calculus.py"]
    func = next(node for node in tree.body if getattr(node, "name", None) == "cyclic_reduce")
    banned = {"mul", "_seam", "conjugate", "inv"}
    found = [
        f"calculus.py:{node.lineno} {node.func.id}"
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in banned
    ]
    assert found == []


def test_one_walk_moves_a_vertex():
    # the left-coset carry of a vertex label lives in tree._split_right
    # alone, which _walk and _descend share, and the backtrack test of a step
    # in the constructor and the class walk's child rows
    def outside(allowed, hit):
        return [
            f"{path.name}:{node.lineno} {func.name}"
            for path, tree in parsed_sources()
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) not in allowed
            for node in ast.walk(func)
            if hit(node)
        ]

    carry = {"decompose_right_H", "decompose_right_K"}
    assert outside({("tree.py", "_split_right")}, lambda node: (
        getattr(node, "attr", None) in carry or getattr(node, "id", None) in carry)) == []
    tree = dict((path.name, tree) for path, tree in parsed_sources())["tree.py"]
    callers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_split_right"
    }
    assert {"_walk", "_descend"} <= callers
    rows = {("tree.py", name) for name in ("__new__", "_class_levels", "fixed_children", "_class_walk")}
    assert outside(rows, lambda node: (
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_backtracks")) == []
    # act and the axis walk resume _walk from where it stopped: they build no
    # label from scratch and take no step of their own, and tree.py splices
    # no token streams (no chain or cycle)
    funcs = {func.name: func for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)}
    movers = {"_walk", "_child", "step", "to_vertex_label", "VertexLabel", "act", "_class_walk", "ball"}
    for name in ("act", "_axis_labels"):
        called = {
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(funcs[name])
            if isinstance(node, ast.Call)
        }
        assert called & movers == {"_walk"}, name
    spliced = [
        f"tree.py:{node.lineno}"
        for node in ast.walk(tree)
        for name in ({node.id} if isinstance(node, ast.Name) else {node.attr} if isinstance(node, ast.Attribute)
                     else {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom) else ())
        if name in ("chain", "cycle")
    ]
    assert spliced == []


def test_the_tree_keeps_no_cache():
    # a walk lists no table of the tree's steps, and a cache would keep one
    # alive per oracle: tree.py imports no lru_cache or cache
    tree = dict((path.name, tree) for path, tree in parsed_sources())["tree.py"]
    found = [
        f"tree.py:{node.lineno} {name}"
        for node in ast.walk(tree)
        for name in ({node.id} if isinstance(node, ast.Name) else {node.attr} if isinstance(node, ast.Attribute)
                     else {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom) else ())
        if name in ("lru_cache", "cache", "cached_property")
    ]
    assert found == []


def test_labels_build_their_path_only_on_request():
    # a vertex label is a cons cell of its parent and its last step: in
    # tree.py only the path property reads a label's path, so no walk,
    # distance or equality copies a path per label
    tree = dict((path.name, tree) for path, tree in parsed_sources())["tree.py"]
    label = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "VertexLabel")
    prop = next(node for node in label.body if isinstance(node, ast.FunctionDef) and node.name == "path")
    inside = {id(node) for node in ast.walk(prop)}
    found = [
        f"tree.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "path" and id(node) not in inside
    ]
    assert found == []
    assert [getattr(d, "id", None) for d in prop.decorator_list] == ["property"]
    assert "path" not in hnnkit.VertexLabel.__slots__


def test_only_child_and_base_vertex_make_cells():
    # a cell's fields are set up in one place: in tree.py only _child and
    # base_vertex call _new and assign the fields, and besides them only
    # __eq__'s re-pointing assigns a parent; the public constructor is a walk
    # of _child steps
    tree = dict((path.name, tree) for path, tree in parsed_sources())["tree.py"]
    builders = ["_child", "base_vertex"]
    fields = {"_oracle", "_parent", "_step", "_depth", "_hash"}
    calls, assigned = set(), {name: set() for name in fields}
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_new":
                calls.add(func.name)
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for attr in ast.walk(target):
                    if isinstance(attr, ast.Attribute) and attr.attr in fields:
                        assigned[attr.attr].add(func.name)
    assert sorted(calls) == builders
    assert {name: sorted(funcs) for name, funcs in assigned.items()} == {
        **{name: builders for name in fields - {"_parent"}},
        "_parent": ["__eq__", *builders],
    }


def test_zd_eliminates_in_integers_only():
    # determinants, ranks and fixed vectors come from zd._echelon, never
    # from rational arithmetic
    tree = dict((path.name, tree) for path, tree in parsed_sources())["zd.py"]
    found = [
        f"zd.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "fractions"
        or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
    ]
    assert found == []


def test_orbit_conjugates_normal_forms_by_one_letter():
    # the orbit BFS of orbit_sample and icc_probe_orbit, verify_finite_class,
    # the steps of escape_exponent and the rotation scan of cyclic_reduce
    # make each conjugate from a normal form by one _nf_conjugate step:
    # their loops build no product, inverse or normal form from scratch,
    # escape_exponent builds no product at all, the scan makes one step per
    # rotation, and the BFS keeps one set
    sources = dict((path.name, tree) for path, tree in parsed_sources())
    funcs = {
        (name, node.name): node
        for name, tree in sources.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    banned = {"normalize", "conjugate", "mul", "inv", "_seam", "britton_reduce"}
    loops = [
        ("analysis.py", "_orbit_layers"),
        ("analysis.py", "verify_finite_class"),
        ("analysis.py", "escape_exponent"),
        ("calculus.py", "_least_rotation"),
    ]

    def calls(node, names):
        return [
            f"{call.lineno} {call.func.id}"
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) in names
        ]

    found = [
        f"{path}:{call} in {name}"
        for path, name in loops
        for loop in ast.walk(funcs[path, name])
        if isinstance(loop, ast.For)
        for call in calls(loop, banned)
    ]
    assert found == []
    assert calls(funcs["analysis.py", "escape_exponent"], {"mul", "stable_word", "britton_reduce"}) == []
    assert len(calls(funcs["calculus.py", "_least_rotation"], {"_nf_conjugate"})) == 1
    sets = [
        node
        for node in ast.walk(funcs["analysis.py", "_orbit_layers"])
        if isinstance(node, (ast.Set, ast.SetComp, ast.Dict, ast.DictComp))
        or isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("set", "dict")
    ]
    assert len(sets) == 1


def test_one_size_check_for_the_tree_walks():
    # every size hnnkit refuses is an entry of calculus._LIMITS, the only
    # module-level name of a limit or a budget
    sources = parsed_sources()
    limits = [
        f"{path.name}:{name.id}"
        for path, tree in sources
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for name in ast.walk(node)
        if isinstance(name, ast.Name) and ("LIMIT" in name.id.upper() or "BUDGET" in name.id.upper())
    ]
    assert limits == ["calculus.py:_LIMITS"]

    def naming(name):
        # {(module, function): function node} of every function naming ``name``
        return {
            (path.name, func.name): func
            for path, tree in sources
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            and any(isinstance(node, ast.Name) and node.id == name for node in ast.walk(func))
        }

    def uncompared_reads(func):
        # lines that read _LIMITS outside a comparison and outside the value
        # bound to a local name that a comparison reads
        compares = [node for node in ast.walk(func) if isinstance(node, ast.Compare)]
        compared = {name.id for node in compares for name in ast.walk(node) if isinstance(name, ast.Name)}
        allowed = {id(x) for node in compares for x in ast.walk(node)}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                pairs = [(target, value)]
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                    pairs = zip(target.elts, value.elts)
                for name, part in pairs:
                    if isinstance(name, ast.Name) and name.id in compared:
                        allowed |= {id(x) for x in ast.walk(part)}
        return [
            node.lineno for node in ast.walk(func)
            if isinstance(node, ast.Name) and node.id == "_LIMITS" and id(node) not in allowed
        ]

    # _more_than writes the phrase of every refusal and is called only
    # inside a raise; besides it, the table is read only where a size is
    # compared with a limit, and every function that refuses reads the table
    calls = [
        (path.name, node)
        for path, tree in sources
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_more_than"
    ]
    raised = {
        id(x) for _, tree in sources for node in ast.walk(tree) if isinstance(node, ast.Raise)
        for x in ast.walk(node)
    }
    assert calls and all(id(call) in raised for _, call in calls)
    readers = naming("_LIMITS")
    assert readers.pop(("calculus.py", "_more_than"))
    assert [(site, uncompared_reads(func)) for site, func in readers.items() if uncompared_reads(func)] == []
    refusing = naming("_more_than")
    assert set(refusing) <= set(readers)

    def reading(unit):
        # every function that reads _LIMITS[unit]
        return {
            (path.name, func.name)
            for path, tree in sources
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Subscript)
            and getattr(node.value, "id", None) == "_LIMITS"
            and getattr(node.slice, "value", None) == unit
        }

    # ball and fixed_subtree are one class walk, refused by one check: it
    # alone reads the path-step limit, and besides it only the axis walks of
    # classify, delta and axes_overlap read the vertex limit, one check each
    walk = ("tree.py", "_class_walk")
    axes = {("tree.py", "classify"), ("tree.py", "delta"), ("tree.py", "axes_overlap")}
    assert reading("path steps") == {walk}
    assert reading("vertices") == {walk, *axes}
    assert {site for site in readers if site[0] == "tree.py"} == {walk, *axes}
    assert {site for site in refusing if site[0] == "tree.py"} == {walk, *axes}
    assert [module for module, _ in calls].count("tree.py") == 4


def test_nothing_enumerates_the_tree_through_neighbors():
    # internal tree walks step through their classes' rows; neighbors builds
    # an EdgeRef per edge and a label per target, and is kept for callers only
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "neighbors" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def names_in(tree):
    """Every name a module mentions: bare names, attributes and strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_method_is_named_somewhere():
    # a method that nothing in the repository names is dead code; dunders and
    # overrides of a standard-library base class (argparse's error) are called
    # from outside
    files = [p for top in ("src", "tests", "scripts", "bench") for p in (ROOT / top).rglob("*.py")]
    named = set().union(*(names_in(ast.parse(p.read_text(), filename=str(p))) for p in files))
    found = []
    for path, tree in parsed_sources():
        module = importlib.import_module(f"hnnkit.{path.stem}")
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            outside = [
                base for base in getattr(module, cls.name).__mro__[1:]
                if not base.__module__.startswith("hnnkit")
            ]
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) or node.name in named:
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if any(name in vars(base) for base in outside):
                    continue
                found.append(f"{path.name}:{node.lineno} {cls.name}.{name}")
    assert found == []


def test_benchmark_hooks_resolve():
    # bench/tracing.py wraps oracle methods by name and bench/workloads.py
    # calls the package through ``H.<name>``: a name either file uses must
    # stay, or the traced benchmark run fails
    tracing = ast.parse((BENCH / "tracing.py").read_text())
    methods = next(
        ast.literal_eval(node.value)
        for node in ast.walk(tracing)
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "ORACLE_METHODS" for target in node.targets)
    )
    assert methods
    found = [f"{cls.__name__}.{m}" for m in methods for cls in (BsOracle, ZdOracle) if not hasattr(cls, m)]
    workloads = ast.parse((BENCH / "workloads.py").read_text())
    used = {
        node.attr
        for node in ast.walk(workloads)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "H"
    }
    assert used
    found += [f"hnnkit.{name}" for name in sorted(used) if not hasattr(hnnkit, name)]
    assert found == []
