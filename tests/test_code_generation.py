"""Code generation in the package stays closed: one builder, fed only module constants.

``integrate._stepper`` generates each method's whole step from stage
expressions written as text.  That is safe only while the text is the
module's own.  So no module under ``src/vacuumlab`` names ``exec``,
``eval`` or ``compile`` outside that builder, and every call of the builder
passes, as its method, a module-level string constant of ``integrate``
that is assigned once and never rebound.  The builder composes its source
from its own literals and the module's stage-expression constants.

The generated steps also keep float sums in the order written.  The
builtin ``sum`` does not: from Python 3.12 on it compensates float sums, so
its bits depend on the interpreter.  So no module names ``sum`` except
``variational.euler_lagrange_residual``, whose corner sum adds arrays, which
NumPy adds element by element in the order given.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vacuumlab"
BUILDER_MODULE, BUILDER = "integrate", "_stepper"
CODEGEN = {"exec", "eval", "compile"}
SUM_MODULE, SUM_FUNCTION = "variational", "euler_lagrange_residual"


def _string_constants(tree):
    """Module-level names bound once, to a string constant, and never rebound or declared global."""
    stores = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            stores[node.id] = stores.get(node.id, 0) + 1
        elif isinstance(node, ast.Global):
            for name in node.names:
                stores[name] = stores.get(name, 0) + 2
    constants = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Name) and isinstance(value, ast.Constant) and isinstance(value.value, str):
                constants.add(target.id)
    return {name for name in constants if stores[name] == 1}


def _builder_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _nodes_of(tree, name):
    """ids of every node inside the module-level function name."""
    return {
        id(n)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == name
        for n in ast.walk(node)
    }


def violations(tree, module):
    """(line, reason) of each way the module's source opens code generation."""
    inside = _nodes_of(tree, BUILDER) if module == BUILDER_MODULE else set()
    constants = _string_constants(tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and node.id in CODEGEN:
            found.append((node.lineno, f"{node.id} outside {BUILDER_MODULE}.{BUILDER}"))
        elif isinstance(node, ast.Attribute) and node.attr in CODEGEN:
            if isinstance(node.value, ast.Name) and node.value.id in ("builtins", "__builtins__"):
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.Call) and _builder_name(node.func) == BUILDER:
            args = node.args[:1] + [k.value for k in node.keywords if k.arg == "method"]
            if module != BUILDER_MODULE:
                found.append((node.lineno, f"{BUILDER} called outside {BUILDER_MODULE}"))
            elif not (len(args) == 1 and isinstance(args[0], ast.Name) and args[0].id in constants):
                found.append((node.lineno, f"{BUILDER} called without a module string constant"))
    return found


def builtin_sums(tree, module):
    """Lines that name the builtin sum, outside the oracle's corner sum."""
    allowed = _nodes_of(tree, SUM_FUNCTION) if module == SUM_MODULE else set()
    return [
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in allowed
        and (
            (isinstance(node, ast.Name) and node.id == "sum")
            or (
                isinstance(node, ast.Attribute)
                and node.attr == "sum"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("builtins", "__builtins__")
            )
        )
    ]


def _package_modules():
    return sorted(PACKAGE.glob("*.py"))


def test_no_code_generation_outside_the_builder():
    found = {}
    for path in _package_modules():
        problems = violations(ast.parse(path.read_text(), filename=str(path)), path.stem)
        if problems:
            found[path.name] = problems
    assert found == {}


def test_the_builder_is_called():
    tree = ast.parse((PACKAGE / f"{BUILDER_MODULE}.py").read_text())
    calls = [
        n for n in ast.walk(tree) if isinstance(n, ast.Call) and _builder_name(n.func) == BUILDER
    ]
    assert len(calls) >= 2  # RK4's step, bound by _march, and RKF45's attempt


@pytest.mark.parametrize(
    "source, module",
    [
        ("x = eval('1')", "cli"),
        ("run = exec", "cli"),
        ("import builtins\nbuiltins.compile('1', 's', 'eval')", "strings"),
        ("def f():\n    return exec('pass')", BUILDER_MODULE),
        ("def _stepper(method, arity):\n    pass\n_stepper(input(), 8)", BUILDER_MODULE),
        ("def _stepper(method, arity):\n    pass\n_stepper('rk4', 8)", BUILDER_MODULE),
        ("E = 'a'\nE = input()\ndef _stepper(method, arity):\n    pass\n_stepper(E, 8)", BUILDER_MODULE),
        ("E = 'a'\ndef g():\n    global E\n    E = input()\n_stepper(E, 8)", BUILDER_MODULE),
        ("E = 'a'\nintegrate._stepper(E, 8)", "cli"),
    ],
)
def test_the_walk_flags_each_opening(source, module):
    assert violations(ast.parse(source), module)


def test_the_walk_passes_the_builder_and_its_constant_calls():
    source = (
        "E = 'rk4'\n"
        "def _stepper(method, arity):\n"
        "    namespace = {}\n"
        "    exec(method, namespace)\n"
        "def march(y):\n"
        "    return _stepper(E, len(y))\n"
        "pattern = re.compile('x')\n"
    )
    assert violations(ast.parse(source), BUILDER_MODULE) == []


def test_no_builtin_sum_outside_the_oracle_corner_sum():
    found = {}
    for path in _package_modules():
        lines = builtin_sums(ast.parse(path.read_text(), filename=str(path)), path.stem)
        if lines:
            found[path.name] = lines
    assert found == {}


@pytest.mark.parametrize(
    "source, module",
    [
        ("y = a + h * sum([b * k for b, k in pairs])", BUILDER_MODULE),
        ("total = sum", "cli"),
        ("import builtins\nbuiltins.sum(values)", "strings"),
        ("def f(v):\n    return __builtins__.sum(v)", SUM_MODULE),
        ("def f(cells):\n    return sum(cells)", SUM_MODULE),
        (f"def {SUM_FUNCTION}(spec, path):\n    return sum(cells)", "particle"),
    ],
)
def test_the_sum_walk_flags_each_builtin_sum(source, module):
    assert builtin_sums(ast.parse(source), module)


def test_the_sum_walk_passes_the_corner_sum_and_array_sums():
    source = (
        f"def {SUM_FUNCTION}(spec, path):\n"
        "    return sum(cells[1:], cells[0])\n"
        "total = np.sum(values) + values.sum() + math.fsum(values)\n"
    )
    assert builtin_sums(ast.parse(source), SUM_MODULE) == []
