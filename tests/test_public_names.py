"""Every public name in src/ has a caller in the program, or a reason here.

The public names are each module's top-level names and the methods
(properties included) of its public classes, listed as ``module.name``
and ``module.Class.method``.  The program is the package and the
benchmark harness, and three rules decide what counts as a call there:

- a top-level name counts as called when a module loads a name, reads an
  attribute or imports a name spelled the same; a method counts only
  through an attribute of its spelling, since a bare name (a local
  variable, say) cannot call a method;
- a reference in ``checks.py`` counts only for ``checks.py``'s own
  ``check_*`` names: the ``vacuumlab check`` battery tests the program and
  is no caller of it;
- a type annotation (of an argument, a return or an annotated assignment
  such as a class field) is no reference: it names a type and calls
  nothing.

The package's ``__init__`` re-exports do not count: exporting a name does
not call it.  Tests do not count either.  A name that only the tests reach
is either kept on purpose, with its reason below, or dead; so is a name
that only the battery reaches, which must verify physics that a run uses.
So a new uncalled public name fails here, and so does giving a listed name
a caller or deleting it without updating the list.

The same walk lists the private names that one module of the package
imports from another; a new one fails here until it is listed.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vacuumlab"

REFERENCED_ONLY_BY_TESTS = {
    # the four public force laws, documented in the README; the stepper runs
    # each model's law through particle.bind_law
    "particle.classical_rhs",
    "particle.constrained_rhs",
    "particle.interacting_rhs",
    "particle.vacuum_rhs",
    # the exported way to supply a user field
    "potentials.CallableField",
    # the Vec3 point form of d(wbar)/dt, which the tests hand to dwbar_dt_fn; the
    # program reads the component form, and read this one only for CallableField rows
    "potentials.PotentialField.dwbar_dt",
    # the E/B derivation of the README layout
    "potentials.electric_field",
    "potentials.magnetic_field",
    # strings.charged_string_rhs was deleted with the writer's charged branch, which no
    # run reached; its written law is test_solver_references.reference_charged_rhs
    # strings.string_momentum moved into test_strings.py
    # the alternative functional whose gap to the energy the README reports
    "strings.string_hamiltonian_alt",
    # conformal.make_patch and conformal.conformal_residual moved into test_conformal.py
    # the oracle group: checks of the hand-coded laws that audit does not report yet
    "variational.discrete_action",
    "variational.legendre_transform_check",
    "variational.multiplier_consistency",
    # variational.StringWorldPath went: a world sheet is a DiscretePath on a sigma axis
    # the successive deviation ratios of the q -> 0 limit; the sweep workload
    # fits the log-log slope of the deviations instead
    "particle.RestMassLimitReport.ratios",
    # deleted, since only the battery or the tests reached them: geometry.Projector3,
    # orthogonal_projector, lab_time_factor and Vec3.cross, whose checks verified only
    # their own identities; errors.ZeroDirectionError, which only the projector raised;
    # integrate.StringTrajectory.final, where the tests read traj.state(-1); and
    # integrate.Trajectory.final, where the battery's gyro check reads the last row's
    # columns and the tests read traj.samples[-1]
}

# names that only the `vacuumlab check` battery calls, each verifying physics that a run uses
REACHED_ONLY_BY_CHECK = {
    # the wave equation of the field, checked through independent second derivatives
    "potentials.wave_residual",
    # the string flow in one call: the static equilibrium and the energy gradient of
    # the writer that every string run binds
    "strings.string_canonical_rhs",
    # <u, A> of the extra-force oracle, a finite difference of the interacting law's term
    "geometry.Vec3.dot",
}


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
            if isinstance(node, ast.ClassDef):
                # a private class's methods start with its own underscore
                names += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                ]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        yield from (name for name in names if not name.startswith("_"))


def _annotation_nodes(tree):
    """The ids of every node inside an argument, return or assignment annotation."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append(node.returns)
    return {id(sub) for root in roots if root is not None for sub in ast.walk(root)}


def _references(trees):
    """(names, attributes): every name loaded or imported, and every attribute read, outside annotations."""
    names, attributes = set(), set()
    for tree in trees:
        annotations = _annotation_nodes(tree)
        for node in ast.walk(tree):
            if id(node) in annotations:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, attributes


def _called(name, references):
    """Whether references call a public name; a method (Class.method) only through an attribute."""
    names, attributes = references
    last = name.rsplit(".", 1)[-1]
    return last in attributes or ("." not in name and last in names)


def test_public_names_without_a_program_reference_are_the_listed_ones():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    checks, init = PACKAGE / "checks.py", PACKAGE / "__init__.py"
    program = _references(tree for path, tree in trees.items() if path not in (checks, init))
    battery = _references([trees[checks]])
    uncalled = {
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE and path != init
        for name in _public_names(tree)
        if not _called(name, program)
        and not (path == checks and name.startswith("check_") and _called(name, battery))
    }
    assert uncalled == REFERENCED_ONLY_BY_TESTS | REACHED_ONLY_BY_CHECK
    assert all(_called(name.split(".", 1)[1], battery) for name in REACHED_ONLY_BY_CHECK)


# the underscore names one package module imports from another, as "importer <- source._name";
# the fields' component protocol (field._point, ...) is attribute access, documented in potentials
CROSS_MODULE_PRIVATE_IMPORTS = set()


def _private_imports(path, tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield f"{path.stem} <- {node.module or 'vacuumlab'}.{alias.name}"


def test_modules_import_only_the_listed_private_names_from_each_other():
    imports = {
        entry
        for path in sorted(PACKAGE.glob("*.py"))
        for entry in _private_imports(path, ast.parse(path.read_text(), str(path)))
    }
    assert imports == CROSS_MODULE_PRIVATE_IMPORTS
