"""Dead-code guards over the library source, by static reading (stdlib `ast`).

Library code earns its place by a caller in the library or in the benchmark
harness; a definition that only tests call belongs in the tests.
"""

import ast
import re
import shlex
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "thmc"

# fiber_enumerate is the full-fiber oracle of the fiber and walk tests; it
# stays in the library because the exact Markov-degree scan (ROADMAP item 8)
# will stream fibers through it
ALLOWED_WITHOUT_CALLER = {"fiber_enumerate"}


def _modules():
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _mentions(node, bare_names: bool = True) -> Counter:
    """Every name, attribute, imported name and identifier-shaped string
    under node (strings cover `tracer.patch(module, "name", ...)`); bare
    names only when bare_names is set."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and bare_names:
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                out[sub.value] += 1
    return out


def _definitions(tree):
    """Top-level functions and classes, and the public methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_definition_has_a_caller_outside_tests():
    modules = _modules()
    # a re-export in the package __init__ is not a use
    mentions = sum(
        (_mentions(tree) for path, tree in modules.items() if path.name != "__init__.py"),
        Counter(),
    )
    # the harness reaches thmc through attributes, imported names and patch
    # strings; its bare names are its own locals, so a local `rank` is no
    # caller of a library `rank`
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        mentions += _mentions(ast.parse(path.read_text()), bare_names=False)
    unused = []
    for path, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name in ALLOWED_WITHOUT_CALLER:
                continue
            # mentions inside the definition itself (recursion, `cls`) do not count
            if mentions[name] - _mentions(node)[name] <= 0:
                unused.append(f"{path.name}: {qualname}")
    assert not unused, "only tests call (or nothing calls): " + ", ".join(unused)


def test_no_assert_statements():
    """Library checks raise explicitly: `python -O` strips every `assert`
    statement, and with it any check written as one."""
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in src/thmc: " + ", ".join(found)


def test_no_unused_imports():
    unused = []
    for path, tree in _modules().items():
        if path.name == "__init__.py":
            continue
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_no_private_imports_across_modules():
    """A `_`-prefixed name belongs to its own module: no other thmc module
    imports it (dunders such as `__version__` are public)."""
    private = []
    for path, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not node.level and (node.module or "").split(".")[0] != "thmc":
                continue
            private += [
                f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            ]
    assert not private, "private names imported across modules: " + ", ".join(private)


def test_benchmark_patch_targets_resolve():
    """Every `tracer.patch(<thmc module or class>, "<name>", ...)` in the
    benchmark harness names an attribute thmc still has, so renaming or
    deleting a traced entry point fails here, not in a traced bench run."""
    import thmc
    import thmc.cli  # noqa: F401  (loads every module the harness patches)

    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    # local aliases such as `ex, nm = thmc.exactla, thmc.normality`
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            names, values = node.targets[0], node.value
            if isinstance(names, ast.Tuple) and isinstance(values, ast.Tuple):
                pairs = zip(names.elts, values.elts)
            else:
                pairs = [(names, values)]
            aliases.update((n.id, v) for n, v in pairs if isinstance(n, ast.Name))

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return thmc if expr.id == "thmc" else resolve(aliases[expr.id])
        assert isinstance(expr, ast.Attribute), ast.dump(expr)
        return getattr(resolve(expr.value), expr.attr)

    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "patch"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "tracer"
    ]
    assert len(calls) >= 10
    missing = []
    for call in calls:
        target, name = resolve(call.args[0]), call.args[1].value
        owner = getattr(target, "__module__", None) or target.__name__
        assert owner.split(".")[0] == "thmc", owner
        if not hasattr(target, name):
            missing.append(f"{owner}.{name}")
    assert not missing, "benchmark patches names thmc lacks: " + ", ".join(missing)


def test_benchmark_workloads_set_up(tmp_path, monkeypatch):
    """Each benchmark workload builds its inputs and its job list against the
    current thmc (set-up reads derived design views such as `A.lattice` and
    `A.np_columns`), so removing one fails here, not in a bench run.  The
    jobs themselves are not run."""
    import thmc
    import thmc.cli  # noqa: F401  (the fit and markov jobs call it)

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == ["fit", "markov", "normality", "verify"]
    for name, workload in WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        jobs = workload(thmc, 1, workdir).jobs()
        assert jobs and all(callable(job) for _, job in jobs), name


def test_benchmark_workloads_run_once(tmp_path, monkeypatch):
    """One pass of each benchmark workload's job list, judged by the
    workload's own first-pass check: no wrong result and no failed operation,
    stricter than the bench, which tolerates up to MAX_KNOWN_FAILURES
    witness failures on `normality`."""
    import thmc
    import thmc.cli  # noqa: F401  (the fit and markov jobs call it)

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import WORKLOADS, Report

    for name, workload in WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        bench = workload(thmc, 1, workdir)
        results = []
        for label, job in bench.jobs():
            try:
                results.append((label, job()))
            except Exception as exc:  # the check counts it, as a bench pass does
                results.append((label, exc))
        report = Report()
        bench.check(results, report, first=True)
        assert report.problems == [] and report.failed == 0, (name, report.problems)


def test_benchmark_spans_cover_each_workload(tmp_path, monkeypatch):
    """A traced bench run counts as wrong when the layer spans cover less than
    `run.MIN_COVERAGE` of a pass, so a change that moves time out of the
    traced entry points, or makes them faster than the untraced glue around
    them, fails that run with an ordinary exit code.  Nine traced passes of
    each workload through the bench's own pass runner, span store and
    per-pass analysis must keep the median coverage at the floor.  Every
    workload is measured before the one check, so a failure names all the
    medians."""
    import thmc
    import thmc.cli  # noqa: F401  (the fit and markov jobs call it)

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    from spans import Tracer, median
    from workloads import WORKLOADS

    medians = {}
    for name, workload in WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        bench = workload(thmc, 1, workdir)
        tracer = Tracer()
        passes = [run.run_pass(bench, tracer) for _ in range(9)]
        self_s = tracer.self_times()
        medians[name] = median(
            [run.PassLayers(tracer, p["root"], self_s, p["factor"]).coverage for p in passes]
        )
    assert min(medians.values()) >= run.MIN_COVERAGE, (run.MIN_COVERAGE, medians)


def _readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_layout_names_every_module():
    """The README's library-layout table lists exactly the modules of
    `src/thmc`, so a module added, renamed or removed shows up here."""
    rows = re.findall(r"^\| `thmc\.(\w+)` \|", _readme_section("Library layout"), re.M)
    modules = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
    assert sorted(rows) == modules


def test_readme_commands_parse():
    """Every `thmc ...` line of the README's command examples parses with the
    command's own parser, so a renamed command or flag shows up here."""
    from thmc.cli import _parser

    block = _readme_section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("thmc ")]
    assert len(lines) >= 10
    bad = []
    for line in lines:
        try:
            _parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            bad.append(line.strip())
    assert not bad, "README commands the parser rejects: " + "; ".join(bad)
