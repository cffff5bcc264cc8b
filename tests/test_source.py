"""Checks on the source of the package itself."""

import ast
import pathlib

import plurigeo

SOURCES = sorted(pathlib.Path(plurigeo.__file__).parent.glob("*.py"))


def _private_definitions(tree):
    """Module-level ``_name`` bindings (not dunders) of one parsed module."""
    names = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(top.name)
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(top, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in top.names)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _imports(tree):
    """What one module imports from the package: ``{alias: module}`` for
    ``from . import module`` and ``{alias: (module, name)}`` for
    ``from .module import name``, function-local imports included."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    modules[bound] = alias.name
                else:
                    names[bound] = (node.module, alias.name)
    return modules, names


def _unread(sources):
    """``module.py:name`` for each module-level private name of ``sources``
    (``{module: source text}``) that no module reads.  A name counts as read
    where its own module reads it, or where a module that imports it, or
    imports its module, reads it: a like-named private of another module
    does not count."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    read = {stem: set() for stem in trees}
    for stem, tree in trees.items():
        modules, names = _imports(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read[stem].add(node.id)
                if node.id in names and names[node.id][0] in read:
                    module, name = names[node.id]
                    read[module].add(name)
            elif isinstance(node, ast.Attribute):
                read[stem].add(node.attr)
                owner = getattr(node.value, "id", None)
                if modules.get(owner) in read:
                    read[modules[owner]].add(node.attr)
    return sorted(
        f"{stem}.py:{name}"
        for stem, tree in trees.items()
        for name in _private_definitions(tree) - read[stem]
    )


def test_every_private_name_is_read():
    # a private helper or constant that no code reads is left over from a
    # rewrite: delete it rather than keep it in step with the code it served
    unread = _unread({path.stem: path.read_text() for path in SOURCES})
    assert not unread, f"private names never read in the package: {unread}"


def test_a_like_named_private_elsewhere_does_not_count():
    helper = "def _rel(x):\n    return x\n"
    assert _unread({"a": helper, "b": helper + "y = _rel(1)\n"}) == ["a.py:_rel"]


def test_reads_through_an_import_count():
    sources = {
        "a": "_K = 1\n\ndef _f():\n    pass\n\ndef _g():\n    pass\n",
        "b": "from . import a as m\nfrom .a import _f, _g\nx = m._K\n_f()\n",
    }
    # b binds _g by its import, and neither module reads it
    assert _unread(sources) == ["a.py:_g", "b.py:_g"]


def _callers(tree, name):
    """The definitions of one parsed module that call ``name``, as a plain
    function (``name(...)``) or an attribute (``x.name(...)``): each by its
    outermost definition, a method as ``Class.method``, a class body as
    ``Class`` and module level as ``<module>``."""
    found = set()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, owner, in_class):
        for child in ast.iter_child_nodes(node):
            here, klass = owner, False
            if owner == "<module>" and isinstance(child, defs + (ast.ClassDef,)):
                here, klass = child.name, isinstance(child, ast.ClassDef)
            elif in_class and isinstance(child, defs):
                here = f"{owner}.{child.name}"
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    found.add(here)
            visit(child, here, klass)

    visit(tree, "<module>", False)
    return found


def _package_callers(name):
    return {f"{path.stem}.{caller}" for path in SOURCES for caller in _callers(ast.parse(path.read_text()), name)}


def test_callers_are_named_by_their_outermost_definition():
    source = (
        "def f():\n    def g():\n        h()\n    return g\n\n"
        "class C:\n    def m(self):\n        self.h()\n    k = h()\n\n"
        "h()\n"
    )
    assert _callers(ast.parse(source), "h") == {"f", "C.m", "C", "<module>"}


def test_einsum_hodge_kernel_and_full_jets_stay_off_the_static_and_flow_paths():
    # the static report, the Hermitian-symplectic extension and the
    # omega_form flow take surface_hodge on surface_jet(); the einsum
    # hodge_operators, its oracle, serves only the identity suite, which
    # stays independent of the kernels it checks, and the full jet only the
    # torsion-norm audit
    hodge = _package_callers("hodge_operators")
    assert hodge <= {"hermitian.identity_suite"}, hodge
    jets = _package_callers("jets")
    assert jets <= {"flow.tnorm_evolution_check"}, jets
    # a metric's pluriclosed defect is its surface jet's; the stencil form
    # serves only general (1,1)-forms
    defect = _package_callers("pluriclosed_defect")
    assert defect <= {"statics.buchdahl_check"}, defect
    # the families are jets only; what they predict is checked in the tests
    modules, names = _imports(ast.parse((SOURCES[0].parent / "families.py").read_text()))
    from_hermitian = {name for module, name in names.values() if module == "hermitian"}
    assert "hermitian" not in modules.values() and from_hermitian == {"HermitianJet"}, from_hermitian


def test_det_g_is_formed_only_where_a_kernel_needs_it():
    # the inverse, the surface kernel (which returns it) and the field's own
    # det() form det g; the static side reads the kernel's
    dets = _package_callers("_real_det")
    assert dets == {"hermitian.inverse_metric", "hermitian.surface_flow", "grid.MetricField.det"}, dets
    statics = _callers(ast.parse((SOURCES[0].parent / "statics.py").read_text()), "det")
    assert not statics, statics
