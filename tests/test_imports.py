"""Structural guards over the package's syntax trees.

No lint tool ships with the project, so these walk each module's syntax
tree. Every name a module imports is used there: it counts as used if the
module reads it anywhere, or re-exports it through ``__all__``, so every
name in a module's ``__all__`` must resolve on the imported module. And no
module evaluates a model once per sample in a loop: per-sample diagnostics
go through ``eval_batch``. And only ``jets`` drives step routines: their
``send`` and ``throw`` calls live in ``jets.lockstep`` and ``jets.drive``.
And only ``expressions`` turns text into code, with ``compile`` and
``exec``: kernel text is written from expression trees, never from the
source of a callable. And only ``jets`` calls ``jet_kernel``: every field
runs its kernels through ``ScalarField``'s one evaluator. And in the kernel
writer only the Euler-Lagrange step ``el`` calls ``solve``: every
acceleration kind is that step over a jet source. And ``cli`` reads
no key of a config: only ``config``
reads the format, and each command is one function on the command skeleton,
with no ``body`` closure.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import routhlab

MODULES = sorted(Path(routhlab.__file__).parent.glob("*.py"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def test_the_guard_sees_the_package():
    assert len(MODULES) >= 10


def test_no_package_name_shadows_a_module():
    # routhlab.<name> is the module routhlab/<name>.py, not a function of that name
    for path in MODULES:
        if path.stem != "__init__":
            module = _module(path)
            assert getattr(routhlab, path.stem) is module, path.stem


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_the_guard_flags_an_unused_import():
    tree = ast.parse("import os\nfrom math import sqrt, pi as tau\n__all__ = ['sqrt']\n")
    names = {name for name, _ in _imported(tree)}
    assert names - _used(tree) == {"os", "tau"}


def _unresolved(module):
    """The names in module.__all__ that the module does not define or import."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def _module(path):
    name = "routhlab" if path.stem == "__init__" else f"routhlab.{path.stem}"
    return importlib.import_module(name)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    # an __all__ entry counts as a use above, so a stale export would hide there
    module = _module(path)
    assert module.__all__, f"{path.name} declares no __all__"
    missing = _unresolved(module)
    assert not missing, f"{path.name} exports names it does not define: {', '.join(missing)}"


def test_the_guard_flags_a_stale_export():
    module = types.ModuleType("stale")
    module.__all__ = ["kept", "Gone"]
    module.kept = 1
    assert _unresolved(module) == ["Gone"]


# model evaluations at one point, and the arrays whose rows are samples
PER_SAMPLE_CALLS = {"value", "fiber_jet", "energy", "momentum", "solve_momentum"}
SAMPLE_ARRAYS = {"positions", "velocities"}
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _per_sample_calls(tree):
    """(line, name) of each model evaluation on a sample row inside a loop."""
    found = set()
    for loop in ast.walk(tree):
        if not isinstance(loop, LOOPS):
            continue
        for node in ast.walk(loop):
            if not (isinstance(node, ast.Call) and _name(node.func) in PER_SAMPLE_CALLS):
                continue
            if any(isinstance(sub, ast.Subscript) and _name(sub.value) in SAMPLE_ARRAYS
                   for arg in node.args for sub in ast.walk(arg)):
                found.add((node.lineno, _name(node.func)))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_per_sample_model_loops(path):
    calls = _per_sample_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not calls, f"{path.name} evaluates a model per sample: {calls}; use eval_batch"


def test_the_guard_flags_a_per_sample_loop():
    tree = ast.parse(
        "log = [F.value(positions[i], velocities[i]) for i in range(k)]\n"
        "for i in range(k):\n"
        "    e = energy(L, traj.positions[i], traj.velocities[i])\n"
        "f0 = F.value(x0, y0)\n"
        "log = F.eval_batch(positions, velocities, 0)\n"
        "jets = [F.fiber_jet(x, y) for x, y in pairs]\n"
        "drift = max(norm(momentum(L, s, full.positions[i], full.velocities[i])) for i in rows)\n"
        "for i in rows:\n"
        "    z[i] = solve_momentum(L, s, mu, red.positions[i], red.velocities[i], guess=z[i - 1])\n"
    )
    assert _per_sample_calls(tree) == [(1, "value"), (3, "energy"), (7, "momentum"),
                                       (9, "solve_momentum")]


# what drives a step routine: sending it a probe's result, or throwing in its error
ROUTINE_CALLS = {"send", "throw"}


def _routine_calls(tree):
    """(line, name) of each ``.send(...)`` or ``.throw(...)`` call."""
    return sorted(
        (node.lineno, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ROUTINE_CALLS
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_jets_drives_step_routines(path):
    calls = _routine_calls(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "jets.py":
        assert calls, "jets.py no longer drives the step routines"
    else:
        assert not calls, f"{path.name} drives a step routine by hand: {calls}; use jets.lockstep"


def test_the_guard_flags_a_routine_driven_by_hand():
    tree = ast.parse(
        "pending[i] = steps[i].send((r, q))\n"
        "s = lockstep(steps, probe, batch)\n"
        "point = routine.throw(exc)\n"
        "sock.sendall(data)\n"
        "send(x)\n"
    )
    assert _routine_calls(tree) == [(1, "send"), (3, "throw")]


# the builtins that turn text into code
CODE_CALLS = {"compile", "exec"}


def _code_calls(tree):
    """(line, name) of each call of the builtin ``compile`` or ``exec``."""
    return sorted(
        (node.lineno, node.func.id)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in CODE_CALLS
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_expressions_compiles_code(path):
    calls = _code_calls(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "expressions.py":
        assert calls, "expressions.py no longer compiles the jet kernels"
    else:
        assert not calls, f"{path.name} compiles code: {calls}; kernels come from expressions"


def test_the_guard_flags_code_built_from_text():
    tree = ast.parse(
        "code = compile(text, name, 'exec')\n"
        "pattern = re.compile(r'x[0-9]+')\n"
        "exec(code, namespace)\n"
        "kernel = expression.jet_kernel('fiber', 2)\n"
    )
    assert _code_calls(tree) == [(1, "compile"), (3, "exec")]


def _kernel_calls(tree):
    """Line of each ``.jet_kernel(...)`` call."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "jet_kernel"
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_jets_dispatches_kernels(path):
    calls = _kernel_calls(ast.parse(path.read_text(), filename=str(path)))
    if path.name == "jets.py":
        assert calls, "jets.py no longer runs the jet kernels"
    else:
        assert not calls, f"{path.name} calls jet_kernel on lines {calls}; use ScalarField.eval"


def test_the_guard_flags_a_kernel_dispatched_elsewhere():
    tree = ast.parse(
        "kernel = self.expression.jet_kernel('fiber', n)\n"
        "def jet_kernel(self, kind, n):\n"
        "    return self._kernels[kind, n]\n"
        "out = model.eval(x, y, 1)\n"
        "columns = tree.jet_kernel('columns', n)(*xs.T, *ys.T)\n"
    )
    assert _kernel_calls(tree) == [1, 5]


def _solve_callers(tree):
    """Names of the ``_KernelWriter`` methods that call ``self.solve``."""
    return sorted({
        method.name
        for writer in ast.walk(tree) if isinstance(writer, ast.ClassDef) and writer.name == "_KernelWriter"
        for method in writer.body if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "solve" and _name(node.func.value) == "self"
    })


def test_only_the_el_step_solves():
    path = Path(routhlab.__file__).parent / "expressions.py"
    assert _solve_callers(ast.parse(path.read_text(), filename=str(path))) == ["el"]


def test_the_guard_flags_a_second_solve():
    tree = ast.parse(
        "class _KernelWriter:\n"
        "    def el(self, jet, v, fail):\n"
        "        return self.solve(jet[4], jet[1], fail)\n"
        "    def spray(self, tree):\n"
        "        return self.solve(g, rhs, '_singular()')\n"
        "    def solve(self, a, b, fail):\n"
        "        return np.linalg.solve(a, b)\n"
        "def reduced_el(writer):\n"
        "    return writer.solve(h, rhs, 'return None')\n"
    )
    assert _solve_callers(tree) == ["el", "spray"]


def _config_reads(tree):
    """(line, form) of each key read from a name ending in ``cfg``, and of each ``body``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "get" and str(_name(node.func.value)).endswith("cfg"):
                found.append((node.lineno, "cfg.get"))
        elif isinstance(node, ast.Subscript) and str(_name(node.value)).endswith("cfg"):
            found.append((node.lineno, "cfg["))
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) and str(_name(right)).endswith("cfg")
            for op, right in zip(node.ops, node.comparators)
        ):
            found.append((node.lineno, "in cfg"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "body":
            found.append((node.lineno, "def body"))
    return sorted(found)


def test_cli_reads_no_config_key():
    path = Path(routhlab.__file__).parent / "cli.py"
    reads = _config_reads(ast.parse(path.read_text(), filename=str(path)))
    assert not reads, f"cli.py reads the config format itself: {reads}; ask routhlab.config"


def test_the_guard_flags_a_config_read():
    tree = ast.parse(
        "e = cfg.get('energy')\n"
        "pcfg = cfg['plot']\n"
        "if 'initial' in cfg:\n"
        "    def body():\n"
        "        return gcfg.get('level', False)\n"
        "x0, v0, e = initial_state(cfg, model)\n"
        "ok = 'x' in init\n"
    )
    assert _config_reads(tree) == [
        (1, "cfg.get"), (2, "cfg["), (3, "in cfg"), (4, "def body"), (5, "cfg.get")]
