"""Code generation in the package stays closed: one builder, fed only module constants.

``integrate._combiner`` generates the steppers' stage combines from stage
expressions written as text.  That is safe only while the text is the
module's own.  So no module under ``src/vacuumlab`` names ``exec``,
``eval`` or ``compile`` outside that builder, and every call of the builder
passes, as its expression, a module-level string constant of ``integrate``
that is assigned once and never rebound.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vacuumlab"
BUILDER_MODULE, BUILDER = "integrate", "_combiner"
CODEGEN = {"exec", "eval", "compile"}


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


def violations(tree, module):
    """(line, reason) of each way the module's source opens code generation."""
    inside = set()
    if module == BUILDER_MODULE:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == BUILDER:
                inside = {id(n) for n in ast.walk(node)}
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
            args = node.args[:1] + [k.value for k in node.keywords if k.arg == "expr"]
            if module != BUILDER_MODULE:
                found.append((node.lineno, f"{BUILDER} called outside {BUILDER_MODULE}"))
            elif not (len(args) == 1 and isinstance(args[0], ast.Name) and args[0].id in constants):
                found.append((node.lineno, f"{BUILDER} called without a module string constant"))
    return found


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
    assert len(calls) >= 7  # RK4's stage and final combines, RKF45's five stages


@pytest.mark.parametrize(
    "source, module",
    [
        ("x = eval('1')", "cli"),
        ("run = exec", "cli"),
        ("import builtins\nbuiltins.compile('1', 's', 'eval')", "strings"),
        ("def f():\n    return exec('pass')", BUILDER_MODULE),
        ("def _combiner(expr, arity):\n    pass\n_combiner(input(), 8)", BUILDER_MODULE),
        ("def _combiner(expr, arity):\n    pass\n_combiner('a + h * b1', 8)", BUILDER_MODULE),
        ("E = 'a'\nE = input()\ndef _combiner(expr, arity):\n    pass\n_combiner(E, 8)", BUILDER_MODULE),
        ("E = 'a'\ndef g():\n    global E\n    E = input()\n_combiner(E, 8)", BUILDER_MODULE),
        ("E = 'a'\nintegrate._combiner(E, 8)", "cli"),
    ],
)
def test_the_walk_flags_each_opening(source, module):
    assert violations(ast.parse(source), module)


def test_the_walk_passes_the_builder_and_its_constant_calls():
    source = (
        "E = 'a + h * b1'\n"
        "def _combiner(expr, arity):\n"
        "    namespace = {}\n"
        "    exec(expr, namespace)\n"
        "def step(y):\n"
        "    return _combiner(E, len(y))\n"
        "pattern = re.compile('x')\n"
    )
    assert violations(ast.parse(source), BUILDER_MODULE) == []
