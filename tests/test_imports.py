"""Structural guards over the package's syntax trees.

No lint tool ships with the project, so these walk each module's syntax
tree. Every name a module imports is used there: it counts as used if the
module reads it anywhere, or re-exports it through ``__all__``, so every
name in a module's ``__all__`` must resolve on the imported module. And no
module evaluates a model once per sample in a loop: per-sample diagnostics
go through ``eval_batch``. And no module yields: the implicit solves are
loops that call their probes.
And only ``expressions`` turns text into code, with ``compile`` and
``exec``: kernel text is written from expression trees and the step text
from the integrator's tableau, never from the source of a callable. And
only ``jets`` calls ``jet_kernel``: every field runs its kernels through
``ScalarField``'s one evaluator, and a level metric binds its base's
through ``jets.tree_kernel``. And in the kernel writer only the
Euler-Lagrange step ``el`` calls ``solve``: every acceleration kind is
that step over a jet source. And ``solve_ode``'s step loop calls no numpy,
and ``integrate_sampled`` calls ``solve_ode`` by its global name. And
``cli`` reads no key of a config: only ``config`` reads the format, and
each command is one function on the command skeleton,
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


def _yields(tree):
    """Line of each ``yield`` and ``yield from``."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Yield, ast.YieldFrom)))


def test_no_module_yields():
    found = {path.name: lines for path in MODULES
             if (lines := _yields(ast.parse(path.read_text(), filename=str(path))))}
    assert found == {}, f"generators in the package: {found}"


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


def _function(tree, name):
    return next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == name)


def _numpy_in_step_loops(tree):
    """(line, form) of each numpy name or ``@`` in the ``while`` loops of ``solve_ode``."""
    return sorted(
        (node.lineno, "@" if isinstance(node, ast.BinOp) else node.id)
        for loop in ast.walk(_function(tree, "solve_ode")) if isinstance(loop, ast.While)
        for node in ast.walk(loop)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Name) and node.id in ("np", "numpy")
    )


def test_the_step_loop_runs_no_numpy():
    # a step is one call of generated float code; numpy on a few entries costs more than the flow
    path = Path(routhlab.__file__).parent / "integrators.py"
    assert _numpy_in_step_loops(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_guard_flags_a_numpy_stage_loop():
    tree = ast.parse(
        "def solve_ode(rhs, y0, t_end, tol):\n"
        "    y = np.asarray(y0, float).copy()\n"
        "    while t < t_end:\n"
        "        for s in range(1, 7):\n"
        "            ys = y + h * (k[:s].T @ _A[s])\n"
        "        if not np.all(np.isfinite(y_new)):\n"
        "            failed = True\n"
        "        qs.append(k.T @ _P)\n"
    )
    assert _numpy_in_step_loops(tree) == [(5, "@"), (6, "np"), (6, "np"), (8, "@")]


def _solve_calls(tree):
    """How ``integrate_sampled`` names each function it calls that ends in ``solve_ode``."""
    return [ast.unparse(node.func) for node in ast.walk(_function(tree, "integrate_sampled"))
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("solve_ode")]


def test_sampled_runs_call_solve_ode_by_its_global_name():
    # so that replacing integrators.solve_ode, as the benchmark's tracer does, sees every run
    path = Path(routhlab.__file__).parent / "integrators.py"
    assert _solve_calls(ast.parse(path.read_text(), filename=str(path))) == ["solve_ode"]


def test_the_guard_flags_a_solve_bound_elsewhere():
    tree = ast.parse(
        "def integrate_sampled(rhs, x0, v0, t_end, tol, samples, conserved, meta, solve=solve_ode):\n"
        "    dense, stats = solve(rhs, y0, t_end, tol=tol)\n"
        "    return integrators.solve_ode(rhs, y0, t_end)\n"
    )
    assert _solve_calls(tree) == ["integrators.solve_ode"]


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
