"""Checks on the package source as a whole.

Every public function in the package is exported or used by the package.
A public module-level function that is neither in ``equiflow.__all__`` nor
referenced anywhere in ``src/equiflow`` outside its own body is code that
only tests call; such a function belongs in the tests, as the reference
it is.  The same holds for the public methods of module-level classes,
which no export covers.  References are ``ast.Name`` and
``ast.Attribute`` nodes, so a mention in a docstring or comment does not
count.

The package reads no environment variable: every setting is a key of the
one config schema, ExperimentConfig.

The banded LU factorization and back-solve, LAPACK dgbtrf and dgbtrs, and
the banded Cholesky factorization and back-solve of the scalar stepper's
symmetric Newton matrix, dpbtrf and dpbtrs, are each called from one
function, so both implicit steppers share one chord iteration. Both
back-solves are in the module-level evolve_llg.solve_banded, which only
_chord calls, so that every back-solve of either stepper can be counted.

RunSeries(...) is called from one function, the run driver _drive, and
run_vector and run_scalar both call it, so the record times, the record
arrays and the step loop are written once.

The nodewise cross product has one home, harmonic_family.cross: numpy's
np.cross is not used in the package. Likewise the nodewise norm has one
home, harmonic_family._norm3: np.linalg.norm is not used in the package.

Arrays are written through plain indexing: nothing of
numpy.lib.stride_tricks (as_strided, sliding_window_view) is used.

Centered stencils have one implementation, radial_grid._apply_stencil:
it is the only function that refers to np.correlate.

The inverse gauge transform does not re-run the forward one: no
function in gauge calls hasimoto_forward.

The equivariant Laplacian has one home, evolve_llg.laplace_operator: no
function refers to a laplace_m.

Both steppers step only rows on the centered stencil: no function of
evolve_llg refers to d2_rho or to its one-sided closure weights _D2_EDGE.
So neither path computes a closure row, and the scalar Newton band is
only as wide as the centered stencil.

Commands compute and the command line entry point reports: print is
called only in cli_io.main.

Every parameter default of a function, or of a method of a class, that
is not in ``equiflow.__all__`` is relied on by the package: at least one
call in src/equiflow omits that parameter. A default that only tests
take is a second path through the function that the program never runs.

Every exception class of errors.py is raised somewhere in the package.

gauge._transport_frame has no loop, neither a for or while statement
nor a comprehension: the frame is one cumulative integral over the
nodes, not a chain of steps.

The frame algebra of the gauge round trip runs its numpy loops along the
nodes: harmonic_family.cross, _frame_coords and _residual_terms and
gauge._transport_frame, hasimoto_forward and reconstruct_v hold no
[:, None] or [..., None] subscript (None or np.newaxis), the broadcast of
a per-node scalar over an (n, 3) field that makes numpy loop over the 3
components.

cli_io.load_snapshot parses its rows in one numpy call: no for or while
statement and no comprehension in it calls the builtin float, directly or
through map, so a snapshot is not read one Python float per value.

FlowConfig's fields are a, dt0, dt_max and ramp, the run schedule and
nothing else: the tolerances, caps and stop rules of the chord iteration
are module constants of evolve_llg, not settings of a run.

The remaining-error estimate of a contracting iteration,
theta/(1 - theta) d = d^2/(before - d), has one home, evolve_llg._remaining:
no other function divides by a difference one of whose operands is the
dividend or an operand of it, and both the chord iteration and the
inverse gauge transform call it.

The tail keys of the config schema are the fields of TailFamily: the
keys of cli_io.ExperimentConfig whose default is read from a TailFamily
class attribute are exactly TailFamily's fields, each reading its own
attribute, so ExperimentConfig.tail_family() takes every key it needs
by name, and each tail default is written once.

The flat-frame transform is a function of the map at one instant:
hasimoto_forward takes no flow coefficient, and GaugeState holds no
phase integral, no conserved-flow integrand and no flow coefficient.
The flow enters only through the phase that qeq_rhs computes.
"""

import ast
from dataclasses import fields
from pathlib import Path

import equiflow
from equiflow.cli_io import ExperimentConfig
from equiflow.scenarios import TailFamily

SRC = Path(equiflow.__file__).resolve().parent


def _public_functions(tree: ast.Module):
    """(name, def) of every public module-level function and, as
    Class.name, of every public method of a module-level class."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            found.extend(
                (f"{node.name}.{fn.name}", fn)
                for fn in node.body
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            )
    return found


def _referenced_names(tree: ast.AST, skip: ast.AST | None) -> set[str]:
    """Names loaded or attributes read anywhere in tree except inside skip."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unused_public_functions(src: Path, exported) -> list[str]:
    """module.name of every public module-level function under src that is
    not in exported, and module.Class.name of every public method of a
    module-level class, with no reference in src outside its own def."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    found = []
    for path, tree in trees.items():
        for name, fn in _public_functions(tree):
            if name in exported:
                continue
            used = any(
                fn.name in _referenced_names(other, fn if other is tree else None)
                for other in trees.values()
            )
            if not used:
                found.append(f"{path.stem}.{name}")
    return found


def test_no_test_only_public_functions():
    assert unused_public_functions(SRC, set(equiflow.__all__)) == []


def test_test_only_public_methods_are_found(tmp_path):
    """A public method referenced only by its own body is reported; one
    read as an attribute elsewhere, a private one and an exported
    function of the same name are not."""
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def used(self):\n"
        "        return self.alone()\n"
        "    def alone(self):\n"
        "        return self.alone\n"
        "    def _private(self):\n"
        "        pass\n"
        "def run(box):\n"
        "    return box.used()\n",
        encoding="utf-8",
    )
    assert unused_public_functions(tmp_path, {"run"}) == []
    (tmp_path / "mod.py").write_text(
        "class Box:\n"
        "    def alone(self):\n"
        "        return self.alone\n"
        "def alone():\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert unused_public_functions(tmp_path, {"alone"}) == ["mod.Box.alone"]


_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(src: Path) -> list[str]:
    """module:line of every name, attribute or import under src that
    refers to the process environment."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in _ENVIRONMENT_NAMES:
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_environment_reads():
    assert environment_reads(SRC) == []


def functions_holding(src: Path, hit) -> list[str]:
    """module.qualified_name of every function or method under src whose
    own body holds a node for which hit is true; nested functions count
    on their own, as outer.inner, and a node outside any function as
    module.<module>."""
    found = set()
    for path in sorted(src.glob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), "")]
        while stack:
            node, owner = stack.pop()
            if hit(node):
                found.add(f"{path.stem}.{owner or '<module>'}")
            for child in ast.iter_child_nodes(node):
                inner = owner
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{owner}.{child.name}" if owner else child.name
                stack.append((child, inner))
    return sorted(found)


def functions_referencing(src: Path, name: str, calls_only: bool = False) -> list[str]:
    """functions_holding a reference to name by an ast.Name or
    ast.Attribute node, with calls_only only as the callee of an
    ast.Call."""

    def hit(node: ast.AST) -> bool:
        target = node
        if calls_only:
            target = node.func if isinstance(node, ast.Call) else None
        return (isinstance(target, ast.Name) and target.id == name) or (
            isinstance(target, ast.Attribute) and target.attr == name
        )

    return functions_holding(src, hit)


def test_banded_lapack_calls_have_one_home():
    assert functions_referencing(SRC, "dgbtrf") == ["evolve_llg._ChordCounters.factor"]
    assert functions_referencing(SRC, "dgbtrs") == ["evolve_llg.solve_banded"]
    assert functions_referencing(SRC, "dpbtrf") == ["evolve_llg._ScalarWork.factor"]
    assert functions_referencing(SRC, "dpbtrs") == ["evolve_llg.solve_banded"]
    assert functions_referencing(SRC, "factor", calls_only=True) == ["evolve_llg._chord"]
    assert functions_referencing(SRC, "solve_banded", calls_only=True) == ["evolve_llg._chord"]


def test_run_series_is_built_by_one_driver():
    assert functions_referencing(SRC, "RunSeries", calls_only=True) == ["evolve_llg._drive"]
    runs = ["evolve_llg.run_scalar", "evolve_llg.run_vector"]
    assert functions_referencing(SRC, "_drive", calls_only=True) == runs


def numpy_uses(src: Path, name: str) -> list[str]:
    """module:line of every np.<name> or numpy.<name> attribute and every
    `from numpy import <name>` under src."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == name:
                hit = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                hit = any(alias.name == name for alias in node.names)
            else:
                continue
            if hit:
                found.append(f"{path.stem}:{node.lineno}")
    return found


def definitions_of(src: Path, name: str) -> list[str]:
    """module.name of every function named name defined under src, at
    any depth."""
    return [
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name
    ]


def test_cross_product_has_one_home():
    assert numpy_uses(SRC, "cross") == []
    assert definitions_of(SRC, "cross") == ["harmonic_family.cross"]


def linalg_norm_uses(src: Path) -> list[str]:
    """module:line of every np.linalg.norm or numpy.linalg.norm attribute
    and every `from numpy.linalg import norm` under src."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "norm":
                owner = node.value
                hit = isinstance(owner, ast.Attribute) and owner.attr == "linalg"
                hit = hit and isinstance(owner.value, ast.Name)
                hit = hit and owner.value.id in ("np", "numpy")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                hit = any(alias.name == "norm" for alias in node.names)
            else:
                continue
            if hit:
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_nodewise_norm_has_one_home(tmp_path):
    assert linalg_norm_uses(SRC) == []
    assert definitions_of(SRC, "_norm3") == ["harmonic_family._norm3"]
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "from numpy.linalg import norm\n"
        "a = np.linalg.norm(x, axis=1)\n"
        "b = np.linalg.solve(m, x)\n"
        "c = norm(x)\n",
        encoding="utf-8",
    )
    assert linalg_norm_uses(tmp_path) == ["mod:2", "mod:3"]


_STRIDE_TRICKS = {"stride_tricks", "as_strided", "sliding_window_view"}


def stride_trick_uses(src: Path) -> list[str]:
    """module:line of every import of or from numpy.lib.stride_tricks and
    every name or attribute stride_tricks, as_strided or
    sliding_window_view under src."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if any(part in _STRIDE_TRICKS for name in names for part in name.split(".")):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_stride_tricks():
    assert stride_trick_uses(SRC) == []


def test_stencil_correlation_has_one_home():
    assert functions_referencing(SRC, "correlate") == ["radial_grid._apply_stencil"]


def laplacian_duplicates(src: Path) -> list[str]:
    """module.function of every function under src that refers to
    laplace_m."""
    return functions_referencing(src, "laplace_m")


def test_equivariant_laplacian_has_one_home():
    assert laplacian_duplicates(SRC) == []
    assert definitions_of(SRC, "laplace_operator") == ["evolve_llg.laplace_operator"]


def test_laplacian_duplicates_are_found(tmp_path):
    """A caller of laplace_m anywhere is found, and laplace_m itself is
    not."""
    (tmp_path / "harmonic_family.py").write_text(
        "from .radial_grid import d2_rho\n"
        "def laplace_m(v, grid, m):\n"
        "    return d2_rho(v, grid)\n"
        "def energy(v, grid, m):\n"
        "    return laplace_m(v, grid, m)\n",
        encoding="utf-8",
    )
    assert laplacian_duplicates(tmp_path) == ["harmonic_family.energy"]


def closure_row_users(src: Path) -> list[str]:
    """module.function of every function of evolve_llg under src, nested
    ones included, that refers to d2_rho or to _D2_EDGE."""
    found = functions_referencing(src, "d2_rho") + functions_referencing(src, "_D2_EDGE")
    return sorted({name for name in found if name.startswith("evolve_llg.")})


def test_steppers_step_only_centered_stencil_rows():
    assert closure_row_users(SRC) == []


def test_closure_row_users_are_found(tmp_path):
    """In evolve_llg, a function calling d2_rho, a method reading _D2_EDGE
    and a function nested in a stepper calling d2_rho are found; the
    centered stencil through _apply_stencil and _D2_CENTER, and d2_rho in
    another module, are not."""
    (tmp_path / "evolve_llg.py").write_text(
        "from .radial_grid import _D2_CENTER, _D2_EDGE, _apply_stencil, d2_rho\n"
        "def laplace_operator(v, grid, m):\n"
        "    return d2_rho(v, grid)\n"
        "class _ScalarWork:\n"
        "    def __init__(self, grid):\n"
        "        self.taps = _D2_EDGE[1] / grid.drho**2\n"
        "def step_scalar(beta, grid):\n"
        "    old = _apply_stencil(beta, _D2_CENTER) / grid.drho**2\n"
        "    def evaluate(x):\n"
        "        return old + d2_rho(x - beta, grid)\n"
        "    return evaluate(beta)\n",
        encoding="utf-8",
    )
    (tmp_path / "harmonic_family.py").write_text(
        "from .radial_grid import d2_rho\n"
        "def tension(v, grid):\n"
        "    return d2_rho(v, grid)\n",
        encoding="utf-8",
    )
    assert closure_row_users(tmp_path) == [
        "evolve_llg._ScalarWork.__init__",
        "evolve_llg.laplace_operator",
        "evolve_llg.step_scalar.evaluate",
    ]


def test_gauge_does_not_call_its_forward_transform():
    callers = functions_referencing(SRC, "hasimoto_forward", calls_only=True)
    assert [name for name in callers if name.startswith("gauge.")] == []


def test_only_main_prints():
    assert functions_referencing(SRC, "print") == ["cli_io.main"]


def _defaulted_parameters(fn: ast.FunctionDef, skip_first: bool):
    """(name, position) of every parameter of fn that has a default, the
    position counted among the arguments a call passes (None for a
    keyword-only parameter); skip_first drops self or cls."""
    positional = [arg.arg for arg in fn.args.posonlyargs + fn.args.args]
    if skip_first:
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    found = [(name, k) for k, name in enumerate(positional) if k >= first]
    found += [
        (arg.arg, None)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return found


def _omits(call: ast.Call, name: str, position) -> bool:
    """Whether call leaves the parameter name, at position among its
    arguments, to its default; a *args or **kwargs call passes it."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return False
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return False
    return position is None or len(call.args) <= position


def unrelied_defaults(src: Path, exported) -> list[str]:
    """module.function(parameter), or module.Class.method(parameter), of
    every parameter default under src that no call under src relies on,
    for the module-level functions not in exported and the methods of the
    module-level classes not in exported. A call is matched by the
    callee's name, or by the class name for __init__."""
    trees = [(p.stem, ast.parse(p.read_text(encoding="utf-8"))) for p in sorted(src.glob("*.py"))]
    calls = [node for _, tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def callee(call: ast.Call):
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    owners = []
    for stem, tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name not in exported:
                owners.append((f"{stem}.{node.name}", node.name, node, False))
            elif isinstance(node, ast.ClassDef) and node.name not in exported:
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in fn.decorator_list
                    )
                    called_as = node.name if fn.name == "__init__" else fn.name
                    owners.append((f"{stem}.{node.name}.{fn.name}", called_as, fn, not static))
    found = []
    for label, called_as, fn, skip_first in owners:
        for name, position in _defaulted_parameters(fn, skip_first):
            if not any(
                callee(call) == called_as and _omits(call, name, position) for call in calls
            ):
                found.append(f"{label}({name})")
    return found


def test_every_default_is_relied_on():
    assert unrelied_defaults(SRC, set(equiflow.__all__)) == []


def test_unrelied_defaults_are_found(tmp_path):
    """A default is relied on by a call that omits it, positionally and by
    keyword; calls that pass it, positionally, by keyword or through
    *args or **kwargs, do not rely on it. Methods skip self, __init__ is
    called by the class name, and exported names are exempt."""
    (tmp_path / "mod.py").write_text(
        "def f(a, b=1, *, c=2):\n"
        "    return a\n"
        "def g(a, b=1, *, c=2):\n"
        "    return a\n"
        "def h(a=0):\n"
        "    return a\n"
        "class Box:\n"
        "    def __init__(self, size=1):\n"
        "        self.size = size\n"
        "    def grow(self, by=1):\n"
        "        return self.size + by\n"
        "    @staticmethod\n"
        "    def make(size=3):\n"
        "        return Box(size)\n"
        "f(0)\n"
        "g(0, 1, c=2)\n"
        "g(*args)\n"
        "g(0, **kwargs)\n"
        "Box().grow(2)\n"
        "Box.make(3)\n",
        encoding="utf-8",
    )
    assert unrelied_defaults(tmp_path, {"h"}) == [
        "mod.g(b)", "mod.g(c)", "mod.Box.grow(by)", "mod.Box.make(size)"
    ]
    assert unrelied_defaults(tmp_path, {"h", "g", "Box"}) == []


def unraised_exceptions(src: Path) -> list[str]:
    """The classes defined in src/errors.py that no raise statement under
    src names, as `raise Name` or `raise Name(...)`."""
    defined = [
        node.name
        for node in ast.parse((src / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
    ]
    raised = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return [name for name in defined if name not in raised]


def test_every_error_class_is_raised():
    assert unraised_exceptions(SRC) == []


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _function(src: Path, module: str, name: str) -> ast.FunctionDef:
    """The module-level function name of src/module.py."""
    tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return fn


def loops_in(src: Path, module: str, name: str) -> list[str]:
    """module:line of every for or while statement and every comprehension
    in the body of the module-level function name of src/module.py."""
    fn = _function(src, module, name)
    return [f"{module}:{node.lineno}" for node in ast.walk(fn) if isinstance(node, LOOPS)]


def test_frame_transport_has_no_loop():
    assert loops_in(SRC, "gauge", "_transport_frame") == []


def test_loops_are_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def chain(xs):\n"
        "    for x in xs:\n"
        "        pass\n"
        "    while xs:\n"
        "        xs.pop()\n"
        "    return [y for y in xs], {y: y for y in xs}, sum(y for y in xs)\n"
        "def flat(xs):\n"
        "    return xs\n",
        encoding="utf-8",
    )
    assert loops_in(tmp_path, "mod", "chain") == ["mod:2", "mod:4", "mod:6", "mod:6", "mod:6"]
    assert loops_in(tmp_path, "mod", "flat") == []


NODE_LOOP_FUNCTIONS = [
    ("modulation", "fit_mu"),
    ("harmonic_family", "cross"),
    ("harmonic_family", "_frame_coords"),
    ("harmonic_family", "_residual_terms"),
    ("gauge", "_transport_frame"),
    ("gauge", "hasimoto_forward"),
    ("gauge", "reconstruct_v"),
]


def _is_new_axis(node: ast.AST) -> bool:
    """Whether node is None or an attribute newaxis."""
    if isinstance(node, ast.Constant):
        return node.value is None
    return isinstance(node, ast.Attribute) and node.attr == "newaxis"


def _is_whole_axis(node: ast.AST) -> bool:
    """Whether node is a bare : or ...."""
    if isinstance(node, ast.Slice):
        return node.lower is None and node.upper is None and node.step is None
    return isinstance(node, ast.Constant) and node.value is Ellipsis


def column_broadcasts(src: Path, module: str, name: str) -> list[str]:
    """module:line of every [:, None] or [..., None] subscript, None
    written as such or as np.newaxis, in the module-level function name
    of src/module.py."""
    found = []
    for node in ast.walk(_function(src, module, name)):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            elts = node.slice.elts
            if len(elts) == 2 and _is_whole_axis(elts[0]) and _is_new_axis(elts[1]):
                found.append(f"{module}:{node.lineno}")
    return found


def test_frame_algebra_loops_along_the_nodes():
    found = [column_broadcasts(SRC, module, name) for module, name in NODE_LOOP_FUNCTIONS]
    assert sum(found, []) == []


def test_column_broadcasts_are_found(tmp_path):
    """[:, None], [..., None] and [:, np.newaxis] are found; component
    slices, a leading new axis, a reshape and [:, None, :] are not."""
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "def broadcast(s, v, q, e):\n"
        "    a = s[:, None] * v\n"
        "    b = q.real[..., None] * e.real\n"
        "    return a + b + s[:, np.newaxis]\n"
        "def along_nodes(s, v, c):\n"
        "    return s * v[:, 0] + v[..., 1] + c.reshape(3, 1) + v[None] + v[:, None, :]\n",
        encoding="utf-8",
    )
    assert column_broadcasts(tmp_path, "mod", "broadcast") == ["mod:3", "mod:4", "mod:5"]
    assert column_broadcasts(tmp_path, "mod", "along_nodes") == []


def calls_of(src: Path, module: str, name: str, callee: str) -> list[str]:
    """module:line of every call of callee, by its bare name or as an
    attribute, in the module-level function name of src/module.py, its
    nested functions included."""
    found = []
    for node in ast.walk(_function(src, module, name)):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == callee:
                found.append(f"{module}:{node.lineno}")
    return found


def test_fit_and_flat_frame_rotation_build_no_profile():
    """fit_mu and hasimoto_forward pair against the profile's 1-D parts and
    build none of h_profile's (n, 3) arrays."""
    found = [
        calls_of(SRC, module, name, "h_profile")
        for module, name in (("modulation", "fit_mu"), ("gauge", "hasimoto_forward"))
    ]
    assert sum(found, []) == []


def test_profile_calls_are_found(tmp_path):
    """A call by bare name, one as a module attribute and one inside a
    nested function are found; a call of another name, the bare name not
    called and a same-named call in another function are not."""
    (tmp_path / "mod.py").write_text(
        "from pkg import harmonic_family as hf, h_profile\n"
        "def fit(mu, grid):\n"
        "    h = h_profile(mu, grid).h\n"
        "    def evaluate(m):\n"
        "        return hf.h_profile(m, grid).f\n"
        "    return h, evaluate\n"
        "def lean(mu, grid):\n"
        "    return hf._profile_parts(mu, grid), h_profile\n"
        "def other(mu, grid):\n"
        "    return h_profile(mu, grid)\n",
        encoding="utf-8",
    )
    assert calls_of(tmp_path, "mod", "fit", "h_profile") == ["mod:3", "mod:5"]
    assert calls_of(tmp_path, "mod", "lean", "h_profile") == []


def _calls_float(node: ast.AST) -> bool:
    """Whether node is a call of the builtin float, or of map with float."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
        return False
    if node.func.id == "map":
        return bool(node.args) and isinstance(node.args[0], ast.Name) and node.args[0].id == "float"
    return node.func.id == "float"


def float_calls_in_loops(src: Path, module: str, name: str) -> list[str]:
    """module:line of every call of float, directly or through map, inside
    a for or while statement or a comprehension of the module-level
    function name of src/module.py, each line once."""
    fn = _function(src, module, name)
    lines = {
        call.lineno
        for loop in ast.walk(fn) if isinstance(loop, LOOPS)
        for call in ast.walk(loop) if _calls_float(call)
    }
    return [f"{module}:{line}" for line in sorted(lines)]


def test_snapshot_rows_are_not_parsed_per_value():
    assert float_calls_in_loops(SRC, "cli_io", "load_snapshot") == []


def test_per_value_float_parses_are_found(tmp_path):
    """float called in a comprehension, in a for loop or through map in a
    while loop is found; a call outside any loop, float as a loop value
    and a call of another converter are not."""
    (tmp_path / "mod.py").write_text(
        "def nested(lines):\n"
        "    return [[float(p) for p in line.split()] for line in lines]\n"
        "def looped(lines, meta):\n"
        "    rows = [float(meta['x'])]\n"
        "    for line in lines:\n"
        "        rows.append([float(p) for p in line.split()])\n"
        "    while lines:\n"
        "        rows.append(list(map(float, lines.pop().split())))\n"
        "    return rows\n"
        "def clean(lines, meta, np):\n"
        "    scale = float(meta['scale'])\n"
        "    for key, kind in (('m', int), ('x', float)):\n"
        "        meta[key] = kind(meta[key])\n"
        "    return scale * np.loadtxt(lines, dtype=float)\n",
        encoding="utf-8",
    )
    assert float_calls_in_loops(tmp_path, "mod", "nested") == ["mod:2"]
    assert float_calls_in_loops(tmp_path, "mod", "looped") == ["mod:6", "mod:8"]
    assert float_calls_in_loops(tmp_path, "mod", "clean") == []


def dataclass_fields(src: Path, module: str, name: str) -> list[str]:
    """The names annotated in the body of the module-level class name of
    src/module.py, in order: the fields of a dataclass."""
    tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name]
    return [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]


def test_flow_config_holds_only_the_schedule():
    assert dataclass_fields(SRC, "evolve_llg", "FlowConfig") == ["a", "dt0", "dt_max", "ramp"]


def test_dataclass_fields_are_found(tmp_path):
    """A solver tolerance added as a field is found; a plain class
    attribute and an annotation inside a method are not fields."""
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class FlowConfig:\n"
        "    a: complex = 1.0\n"
        "    dt0: float = 1e-3\n"
        "    LIMIT = 3\n"
        "    newton_tol: float = 1e-10\n"
        "    def dt_at(self, t):\n"
        "        x: float = t\n"
        "        return x\n",
        encoding="utf-8",
    )
    assert dataclass_fields(tmp_path, "mod", "FlowConfig") == ["a", "dt0", "newton_tol"]


def tail_keys(src: Path) -> dict[str, str]:
    """key: attribute for every key of ExperimentConfig in src/cli_io.py
    whose default, the first argument of its _key call, is an attribute
    of TailFamily."""
    tree = ast.parse((src / "cli_io.py").read_text(encoding="utf-8"))
    (cls,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig"
    ]
    found = {}
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call):
            default = node.value.args[0] if node.value.args else None
            if (
                isinstance(default, ast.Attribute)
                and isinstance(default.value, ast.Name)
                and default.value.id == "TailFamily"
            ):
                found[node.target.id] = default.attr
    return found


def test_tail_keys_are_the_tail_family_fields():
    names = dataclass_fields(SRC, "scenarios", "TailFamily")
    assert tail_keys(SRC) == {name: name for name in names}
    schema = {key.name: key.default for key in fields(ExperimentConfig)}
    assert {key.name: schema[key.name] for key in fields(TailFamily)} == {
        key.name: key.default for key in fields(TailFamily)
    }


def test_tail_keys_are_found(tmp_path):
    """A key whose default is a TailFamily attribute is found, under its
    own name even when it reads another attribute; a key with a literal
    default or with no _key call is not."""
    (tmp_path / "cli_io.py").write_text(
        "class ExperimentConfig:\n"
        "    kappa: float = _key(TailFamily.kappa, 'tail amplitude')\n"
        "    width: float = _key(TailFamily.cut_width, 'ramp width')\n"
        "    sign: int = _key(1, 'tail orientation')\n"
        "    n: int = 1024\n",
        encoding="utf-8",
    )
    assert tail_keys(tmp_path) == {"kappa": "kappa", "width": "cut_width"}


def parameters_of(src: Path, module: str, name: str) -> list[str]:
    """The parameter names of the module-level function name of
    src/module.py, in order, keyword-only ones last."""
    tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return [arg.arg for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)]


def test_flat_frame_transform_takes_no_flow_coefficient():
    assert parameters_of(SRC, "gauge", "hasimoto_forward") == ["vmap", "mu", "grid"]
    assert dataclass_fields(SRC, "gauge", "GaugeState") == [
        "e", "w", "q", "nu", "M", "v", "alpha_tilde", "grid"
    ]


def test_parameters_are_found(tmp_path):
    """A defaulted and a keyword-only parameter are found; a nested
    function's are not."""
    (tmp_path / "mod.py").write_text(
        "def forward(vmap, mu, grid, a=1.0, *, strict=True):\n"
        "    def inner(b):\n"
        "        return b\n"
        "    return inner(a)\n",
        encoding="utf-8",
    )
    assert parameters_of(tmp_path, "mod", "forward") == ["vmap", "mu", "grid", "a", "strict"]


def _is_estimate(node: ast.AST) -> bool:
    """Whether node is a division by a difference one of whose operands
    is the dividend, or an operand of it when the dividend is a binary
    operation: the shape of d * d / (before - d)."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
        return False
    den = node.right
    if not (isinstance(den, ast.BinOp) and isinstance(den.op, ast.Sub)):
        return False
    num = node.left
    parts = [num, num.left, num.right] if isinstance(num, ast.BinOp) else [num]
    dumped = {ast.dump(part) for part in parts}
    return ast.dump(den.left) in dumped or ast.dump(den.right) in dumped


def test_remaining_error_estimate_has_one_home():
    assert functions_holding(SRC, _is_estimate) == ["evolve_llg._remaining"]
    callers = functions_referencing(SRC, "_remaining", calls_only=True)
    assert callers == ["evolve_llg._chord", "gauge.reconstruct_v"]


def test_estimate_shaped_divisions_are_found(tmp_path):
    """The estimate written as d * d / (before - d), as d ** 2 / (before -
    d) and as d / (before - d) * d is found; a secant step, a Lagrange
    factor and a division by an unrelated difference are not."""
    (tmp_path / "mod.py").write_text(
        "def product(d, before):\n"
        "    return d * d / (before - d)\n"
        "def power(d, before):\n"
        "    return d ** 2 / (before - d)\n"
        "def ratio(d, before):\n"
        "    return d / (before - d) * d\n"
        "def clean(v, k, lk, x, m, a, b):\n"
        "    t = -v[k] / (v[k + 1] - v[k])\n"
        "    lk = lk * (x - m) / (k - m)\n"
        "    return t, lk, a * b / (a + b), (a - b) / (k - 1.0)\n",
        encoding="utf-8",
    )
    assert functions_holding(tmp_path, _is_estimate) == ["mod.power", "mod.product", "mod.ratio"]
