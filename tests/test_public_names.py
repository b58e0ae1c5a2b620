"""Every public name in src/ has a reference in src/ or bench/, or a reason here.

The public names are each module's top-level names and the methods
(properties included) of its public classes, listed as ``module.name``
and ``module.Class.method``.  A name counts as referenced when any module
of the package or of the benchmark harness loads a name, reads an
attribute or imports a name spelled the same; so a method counts as
referenced by any attribute of its spelling.  The package's ``__init__``
re-exports do not count: exporting a name does not call it.  Tests do not
count either: a name only the tests reach is either kept on purpose, with
its reason below, or dead.  So a new uncalled public name fails here, and
so does giving a listed name a caller or deleting it without updating the
list.
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
    # the successive deviation ratios of the q -> 0 limit; the sweep workload
    # fits the log-log slope of the deviations instead
    "particle.RestMassLimitReport.ratios",
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


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_public_names_without_a_program_reference_are_the_listed_ones():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    referenced = {
        name
        for path, tree in trees.items()
        if path != PACKAGE / "__init__.py"
        for name in _references(tree)
    }
    unreferenced = {
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE and path.stem != "__init__"
        for name in _public_names(tree)
        if name.rsplit(".", 1)[-1] not in referenced
    }
    assert unreferenced == REFERENCED_ONLY_BY_TESTS
