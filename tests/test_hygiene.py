import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "momentgraph"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that the module never references."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}",
)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_scan_sees_unused_and_exempt_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os, json as js\n"
        "from .a import b, c\n"
        "__all__ = ['c']\n"
        "os.getcwd()\n"
    )
    assert unused_imports(tree) == ["b (line 3)", "js (line 2)"]


def referenced_names(tree: ast.Module, skip_def: str | None = None) -> set[str]:
    """Bare names, `ad.`/`autodiff.` attributes and imported names used in tree;
    a top-level def named skip_def contributes nothing (its own body does not count)."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == skip_def:
            continue
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                if sub.value.id in ("ad", "autodiff"):
                    names.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                names.update(alias.name for alias in sub.names)
    return names


def unreferenced_functions(module: ast.Module, package: list[ast.Module]) -> list[str]:
    """Top-level functions of module that no module of package references outside their own def."""
    defs = [stmt.name for stmt in module.body if isinstance(stmt, ast.FunctionDef)]
    return [
        name for name in defs
        if not any(name in referenced_names(tree, name if tree is module else None) for tree in package)
    ]


def test_every_autodiff_function_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_functions(trees["autodiff.py"], list(trees.values())) == []


def test_reference_scan_sees_dead_and_live_functions():
    autodiff = ast.parse(
        "class Tensor:\n"
        "    def __add__(self, other):\n"
        "        return add(self, other)\n"
        "def add(a, b): ...\n"
        "def concat(xs):\n"
        "    return concat(xs[1:])\n"
        "def tanh(a): ...\n"
        "def log(a): ...\n"
        "def dead(a): ...\n"
    )
    user = ast.parse("from . import autodiff as ad\nfrom .autodiff import log\nad.tanh(x)\nlog(x)\n")
    assert unreferenced_functions(autodiff, [autodiff, user]) == ["concat", "dead"]


def unreferenced_classes(module: ast.Module, others: list[ast.Module]) -> list[str]:
    """Top-level classes of module that no tree of others names."""
    used = set().union(*(referenced_names(tree) for tree in others))
    return [stmt.name for stmt in module.body if isinstance(stmt, ast.ClassDef) and stmt.name not in used]


def test_every_error_class_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}
    errors = trees.pop("errors.py")
    assert unreferenced_classes(errors, list(trees.values())) == []


def test_class_scan_ignores_uses_inside_the_defining_module():
    errors = ast.parse(
        "class BaseError(Exception): ...\n"
        "class LiveError(BaseError): ...\n"
        "class DeadError(BaseError): ...\n"
    )
    user = ast.parse("from .errors import LiveError\ntry:\n    pass\nexcept BaseError:\n    raise LiveError()\n")
    assert unreferenced_classes(errors, [user]) == ["DeadError"]
    assert unreferenced_classes(errors, []) == ["BaseError", "LiveError", "DeadError"]


def autodiff_privates(tree: ast.Module) -> list[str]:
    """Private autodiff names that tree uses: `ad._x` / `autodiff._x`
    attributes and `from .autodiff import _x`, with their lines."""
    found = []
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id in ("ad", "autodiff") and sub.attr.startswith("_"):
                found.append(f"{sub.value.id}.{sub.attr} (line {sub.lineno})")
        elif isinstance(sub, ast.ImportFrom) and (sub.module or "").split(".")[-1] == "autodiff":
            found.extend(f"{alias.name} (line {sub.lineno})" for alias in sub.names if alias.name.startswith("_"))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "autodiff.py"], ids=lambda p: p.name)
def test_only_autodiff_names_its_privates(path):
    assert autodiff_privates(ast.parse(path.read_text(), filename=str(path))) == []


def test_private_scan_sees_attributes_and_imports():
    tree = ast.parse(
        "from .autodiff import Tensor, _accumulate\n"
        "ad._accumulate(x, g)\n"
        "autodiff._make(d, (), f)\n"
        "ad.record(d, (), f)\n"
        "np._x\n"
        "from momentgraph.autodiff import _wrap\n"
        "from . import _private\n"
    )
    assert autodiff_privates(tree) == [
        "_accumulate (line 1)", "_wrap (line 6)", "ad._accumulate (line 2)", "autodiff._make (line 3)"
    ]


def data_or_grad_rebinds(tree: ast.Module) -> list[str]:
    """Assignments that rebind a `.data` or `.grad` attribute, with their lines.
    A write through a subscript (`p.data[...] = x`) is in place and not one."""
    return sorted(
        f"{ast.unparse(sub)} (line {sub.lineno})"
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) and sub.attr in ("data", "grad")
    )


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name not in ("autodiff.py", "optim.py")], ids=lambda p: p.name
)
def test_only_autodiff_and_optim_rebind_data_or_grad(path):
    # a parameter's .data and .grad are views of Adam's vector: rebinding one detaches the block
    assert data_or_grad_rebinds(ast.parse(path.read_text(), filename=str(path))) == []


def test_rebind_scan_sees_assignments_but_not_in_place_writes():
    tree = ast.parse(
        "p.data = x\n"
        "a.grad, b.data = g, d\n"
        "p.grad += g\n"
        "p.data[...] = x\n"
        "p.grad[0] += 1\n"
        "y = p.data\n"
        "self.data_dir = d\n"
    )
    assert data_or_grad_rebinds(tree) == ["a.grad (line 2)", "b.data (line 2)", "p.data (line 1)", "p.grad (line 3)"]


def segment_map_constructions(tree: ast.Module) -> list[str]:
    """Calls that construct a SortedSegments (`SortedSegments(...)`,
    `ad.SortedSegments(...)`, `SortedSegments.from_counts(...)`), with their lines."""
    return sorted(
        f"{ast.unparse(sub.func)} (line {sub.lineno})"
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Call) and "SortedSegments" in ast.unparse(sub.func)
    )


@pytest.mark.parametrize("name", ["graph.py", "temporal.py"])
def test_graph_and_temporal_head_build_no_segment_map(name):
    # each stacked axis gets one map, built by the code that stacks it: the model
    path = SRC / name
    assert segment_map_constructions(ast.parse(path.read_text(), filename=str(path))) == []


def test_construction_scan_sees_every_spelling():
    tree = ast.parse(
        "SortedSegments(ids, 3, 'x')\n"
        "m = ad.SortedSegments(ids, 3, 'x')\n"
        "f(autodiff.SortedSegments.from_counts([2, 1], 'x'))\n"
        "def g(frames: SortedSegments) -> SortedSegments:\n"
        "    return frames.sum(x, 1)\n"
    )
    assert segment_map_constructions(tree) == [
        "SortedSegments (line 1)", "ad.SortedSegments (line 2)", "autodiff.SortedSegments.from_counts (line 3)"
    ]


def add_at_calls(tree: ast.Module) -> list[str]:
    """Calls of `np.add.at` (or `numpy.add.at`), with their lines."""
    return sorted(
        f"{ast.unparse(sub.func)} (line {sub.lineno})"
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Call) and ast.unparse(sub.func) in ("np.add.at", "numpy.add.at")
    )


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "autodiff.py"], ids=lambda p: p.name)
def test_only_autodiff_scatters_with_add_at(path):
    # gather_rows' backward scatters unsorted ids; a sorted axis reduces through its SortedSegments
    assert add_at_calls(ast.parse(path.read_text(), filename=str(path))) == []


def test_add_at_scan_sees_both_spellings():
    tree = ast.parse(
        "np.add.at(out, idx, g)\n"
        "f(numpy.add.at(out, idx, g))\n"
        "np.add.reduceat(x, starts)\n"
        "np.add(a, b)\n"
        "at = np.add.at\n"
    )
    assert add_at_calls(tree) == ["np.add.at (line 1)", "numpy.add.at (line 2)"]


def methods_reading(tree: ast.Module, cls: str, attr: str) -> list[str]:
    """Methods of class cls that read self.<attr> anywhere in their body, in order."""
    found = []
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ClassDef) and stmt.name == cls:
            for method in stmt.body:
                if isinstance(method, ast.FunctionDef) and any(
                    isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load) and sub.attr == attr
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                    for sub in ast.walk(method)
                ):
                    found.append(method.name)
    return found


def test_model_reads_its_vocabulary_only_to_prepare_and_persist():
    # the forward pass reads word ids that prepare_all settled, never the vocabulary
    path = SRC / "model.py"
    readers = methods_reading(ast.parse(path.read_text(), filename=str(path)), "MomentModel", "vocab")
    assert set(readers) <= {"__init__", "prepare_all", "save", "restore"}


def test_vocab_read_scan_sees_loads_inside_methods_only():
    tree = ast.parse(
        "class MomentModel:\n"
        "    def __init__(self, vocab):\n"
        "        self.vocab = vocab\n"
        "    def forward(self, batch):\n"
        "        return [self.vocab.index(t) for t in batch]\n"
        "    def size(self, other):\n"
        "        return len(other.vocab)\n"
        "    def save(self):\n"
        "        def inner():\n"
        "            return self.vocab\n"
        "class Other:\n"
        "    def forward(self):\n"
        "        return self.vocab\n"
    )
    assert methods_reading(tree, "MomentModel", "vocab") == ["forward", "save"]


def calls_of(tree: ast.Module, name: str) -> list[str]:
    """Calls of a function or method called name (`name(...)` or `x.name(...)`), with the
    enclosing top-level def or class method as `Class.method`, in line order."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if called == name:
                    found.append((child.lineno, f"{where or '<module>'} (line {child.lineno})"))
            visit(child, where)

    visit(tree, "")
    return [text for _, text in sorted(found)]


def src_calls_of(name: str) -> list[str]:
    return [
        f"{path.name}: {call}"
        for path in sorted(SRC.glob("*.py"))
        for call in calls_of(ast.parse(path.read_text(), filename=str(path)), name)
    ]


def test_splits_are_prepared_together():
    # prepare_all routes each video once for all its tuples; a loop over prepare routes it per tuple
    assert src_calls_of("prepare") == []


def test_detections_are_routed_in_one_place():
    # the per-video step is the one caller, so a video is routed once per prepare_all call
    assert [call.split(" (line")[0] for call in src_calls_of("route_detections")] == [
        "model.py: MomentModel._route_video"
    ]


def test_detection_lists_are_made_only_by_the_generator():
    # every other producer builds Detections columns; synth.generate is the last list producer
    assert {call.split(":")[0] for call in src_calls_of("Detection")} == {"synth.py"}


def test_call_scan_sees_bare_and_attribute_calls_with_their_scope():
    tree = ast.parse(
        "prepare(s)\n"
        "class Model:\n"
        "    def run(self, s):\n"
        "        return [self.prepare(x) for x in s]\n"
        "    def prepare_all(self, s):\n"
        "        def inner():\n"
        "            return m.prepare(s)\n"
        "        return self.prepare\n"
        "def f():\n"
        "    g(prepared(1), x.prepare_all(2))\n"
    )
    assert calls_of(tree, "prepare") == [
        "<module> (line 1)", "Model.run (line 4)", "Model.prepare_all.inner (line 7)"
    ]


def test_graph_weights_are_built_once_per_forward():
    # forward builds the graph's parameter-only products once and hands them to every block
    assert [call.split(" (line")[0] for call in src_calls_of("GraphWeights")] == ["model.py: MomentModel.forward"]


def test_call_scan_sees_a_second_graph_weights_builder():
    tree = ast.parse(
        "class MomentModel:\n"
        "    def forward(self, batch):\n"
        "        return GraphWeights(self.graph_params)\n"
        "def spatial_graph(a0, params, weights=None):\n"
        "    weights = weights or graph.GraphWeights(params)\n"
        "def check(w: GraphWeights) -> GraphWeights: ...\n"
    )
    assert calls_of(tree, "GraphWeights") == ["MomentModel.forward (line 3)", "spatial_graph (line 5)"]


BUDGETS = ("EVAL_FRAMES", "GRAPH_BLOCK_NODES", "budget_runs")


def names_of(tree: ast.Module, names) -> list[str]:
    """Every mention of one of names in tree (a bare name, an attribute, an
    imported name or a def), with its line."""
    found = []
    for sub in ast.walk(tree):
        for attr in ("id", "attr", "name"):  # Name, Attribute, alias and def
            name = getattr(sub, attr, None)
            if name in names and hasattr(sub, "lineno"):
                found.append(f"{name} (line {sub.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "model.py"], ids=lambda p: p.name)
def test_only_the_model_names_the_evaluation_budgets(path):
    # how an untaped forward is cut by cost is one decision: predict and forward apply it
    assert names_of(ast.parse(path.read_text(), filename=str(path)), BUDGETS) == []


def test_budget_scan_sees_names_attributes_imports_and_defs():
    tree = ast.parse(
        "from .model import budget_runs, frame_map\n"
        "runs = budget_runs(costs, model.EVAL_FRAMES)\n"
        "GRAPH_BLOCK_NODES = 512\n"
        "def budget_runs(costs, budget): ...\n"
        "frames = 'EVAL_FRAMES'\n"
        "x.eval_frames = EVAL_FRAMES_MAX\n"
    )
    assert names_of(tree, BUDGETS) == [
        "EVAL_FRAMES (line 2)", "GRAPH_BLOCK_NODES (line 3)", "budget_runs (line 1)", "budget_runs (line 2)",
        "budget_runs (line 4)",
    ]
