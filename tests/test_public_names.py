"""Two rules on the package's public forms, since a public form that only
tests use is a second copy of pipeline code, and its tests check code that
no stage runs:

- every public module-level function and class is named in the package
  outside its own definition;
- every public module-level function, and every public method, property,
  classmethod and staticmethod of a public class, runs in a pipeline
  invocation (`spkdbn gen-synth`, then `spkdbn run` at depth 2 with two
  adapted layers and with random initialization).  This checks at run
  time what the first rule cannot see: methods, whose names numpy's own
  methods share (`.copy()`)."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import spkdbn
from conftest import make_experiment
from spkdbn.cli import main

PACKAGE = Path(spkdbn.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _names(node) -> set[str]:
    """Every identifier that node and its descendants load, and every
    attribute they look up on a package module's name (`evaluation.fuse`).
    An attribute of any other object (`report.det_points`) is not a use of
    a module-level name that it happens to share."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in MODULES}


def test_every_public_function_and_class_is_named_outside_its_own_definition():
    modules = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    statements = [stmt for module in modules for stmt in module.body]
    assert statements
    unused = []
    for definition in statements:
        if (isinstance(definition, (ast.FunctionDef, ast.ClassDef))
                and not definition.name.startswith("_")
                and not any(definition.name in _names(stmt)
                            for stmt in statements if stmt is not definition)):
            unused.append(definition.name)
    assert not unused, f"no caller in the package: {', '.join(unused)}"


def _public_callables() -> dict[str, object]:
    """Qualified name -> code object of every public module-level function
    and every public method, property, classmethod and staticmethod of each
    public class defined in the package."""
    found = {}
    for stem in sorted(MODULES - {"__init__"}):
        module = importlib.import_module(f"spkdbn.{stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{stem}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[f"{stem}.{name}.{attr}"] = member.__code__
    return found


def test_every_public_function_and_method_runs_in_a_pipeline_invocation(tmp_path):
    callables = _public_callables()
    assert callables
    pairs = make_experiment(tmp_path, num_speakers=4)
    config = tmp_path / "exp.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in pairs.items()))
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        # the background set make_experiment wrote, written again by the CLI
        assert main(["gen-synth", "--speakers", "40", "--sessions", "5", "--dim", "50",
                     "--within-spread", "0.2", "--seed", "1000", "--unlabeled",
                     "--out", pairs["background"]]) == 0
        runs = {"dbn": ["depth=2"], "random": ["init_mode=random"]}
        for out, items in runs.items():
            overrides = [f"--override={item}" for item in (f"out={tmp_path / out}", *items)]
            assert main(["run", "--config", str(config), "--jobs", "1", *overrides]) == 0
    finally:
        sys.setprofile(previous)
    never_ran = sorted(name for name, code in callables.items() if code not in ran)
    assert not never_ran, f"no pipeline invocation runs: {', '.join(never_ran)}"
