"""Meta-tests enforcing API hygiene across the whole library.

Deliverable (e) requires doc comments on every public item; these tests
make that a checked property rather than a hope, and verify that every
package's ``__all__`` names resolve.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import pathlib
import pkgutil
import re

import pytest

import repro

PACKAGES = [
    "repro.util",
    "repro.obs",
    "repro.sim",
    "repro.odp",
    "repro.directory",
    "repro.messaging",
    "repro.org",
    "repro.activity",
    "repro.information",
    "repro.communication",
    "repro.expertise",
    "repro.environment",
    "repro.apps",
    "repro.baselines",
    "repro.analysis",
    "repro.resilience",
    "repro.federation",
    "repro.control",
    "repro.sharding",
    "repro.mediation",
    "repro.workload",
]


def _all_modules() -> list[str]:
    names = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        names.append(package_name)
        for info in pkgutil.iter_modules(package.__path__):
            names.append(f"{package_name}.{info.name}")
    return names


@pytest.mark.parametrize("module_name", _all_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("module_name", _all_modules())
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name, member in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(member, "__module__", None) != module_name:
            continue  # re-exports are documented at their home
        if inspect.isclass(member):
            if not (member.__doc__ or "").strip():
                undocumented.append(f"class {name}")
            for method_name, method in vars(member).items():
                if method_name.startswith("_"):
                    continue
                if not inspect.isfunction(method) or (method.__doc__ or "").strip():
                    continue
                # An override inherits its contract's documentation (e.g.
                # Filter.matches, the Interceptor protocol methods).
                inherited = any(
                    (getattr(base, method_name, None) is not None)
                    and (getattr(getattr(base, method_name), "__doc__", "") or "").strip()
                    for base in member.__mro__[1:]
                )
                protocol_documented = method_name in (
                    "before_invoke",
                    "on_failure",
                ) or inherited
                if not protocol_documented:
                    undocumented.append(f"{name}.{method_name}")
        elif inspect.isfunction(member):
            if not (member.__doc__ or "").strip():
                undocumented.append(f"def {name}")
    assert not undocumented, f"{module_name}: undocumented public items: {undocumented}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_all_resolves(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), f"{package_name}.__all__ names missing {name!r}"


def test_top_level_version():
    assert repro.__version__


#: wall-clock reads that would make a seeded run depend on the host
WALL_CLOCK = re.compile(
    r"time\.(time|perf_counter|monotonic|process_time)(_ns)?\(|datetime\.now\("
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "pattern", ["src/**/*.py", "benchmarks/bench_*.py"], ids=["src", "benchmarks"]
)
def test_library_never_reads_the_wall_clock(pattern):
    """Simulated time is the library's contract: a stray wall-clock read
    under src/ silently breaks same-seed reproducibility.  The E-series
    benches keep no private timer either: wall-clock cost is measured by
    benchmarks/harness alone, which is not scanned."""
    hits = [
        f"{path.relative_to(ROOT)}:{number}: {line.strip()}"
        for path in sorted(ROOT.glob(pattern))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if WALL_CLOCK.search(line)
    ]
    assert not hits, f"wall-clock reads in {pattern}:\n" + "\n".join(hits)


def _builds_failed_outcome(node: ast.AST) -> bool:
    """An ``ExchangeOutcome(...)`` call whose ``delivered`` is not ``True``."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", "") == "ExchangeOutcome"):
        return False
    delivered = node.args[0] if node.args else next(
        (keyword.value for keyword in node.keywords if keyword.arg == "delivered"), None
    )
    return not (isinstance(delivered, ast.Constant) and delivered.value is True)


def test_failed_exchange_outcomes_come_from_refuse_only():
    """The environment has one refusal path: every failed
    ``ExchangeOutcome`` is built inside ``_refuse``, which also counts
    it.  A failed literal anywhere else would be a second path whose
    counting has to be kept in step by hand."""
    path = ROOT / "src/repro/environment/environment.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    refuse = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_refuse"
    )
    inside = {id(node) for node in ast.walk(refuse)}
    failed = [node for node in ast.walk(tree) if _builds_failed_outcome(node)]
    assert failed, "_refuse no longer builds the failed outcome"
    strays = [node.lineno for node in failed if id(node) not in inside]
    assert not strays, f"failed ExchangeOutcome built outside _refuse at lines {strays}"


@pytest.mark.parametrize("method", ["_expiry", "_admit"])
def test_federation_decides_each_origin_stage_in_one_function(method):
    """The federation's origin has one stage for every run kind: the
    deadline and the origin's admission are each decided from a single
    function of the federation module, not from one copy per run kind."""
    path = ROOT / "src/repro/federation/federation.py"
    callers = {
        function.name
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == method
    }
    assert len(callers) == 1, f"{method} called from {sorted(callers)}"


def test_only_repro_org_writes_the_person_index():
    """Who belongs where is recorded once, in the knowledge base's person
    index, which the registered organisations write as their rosters
    change.  Every other module reads it through the read-only
    ``person_index`` view: a module outside ``repro.org`` reaching for
    ``_person_index`` would be a second writer to keep in step."""
    src = ROOT / "src/repro"
    reaches = {
        (path.relative_to(src).parts[0], f"{path.relative_to(ROOT)}:{node.lineno}")
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_person_index"
    }
    assert {package for package, _ in reaches} == {"org"}, sorted(
        where for package, where in reaches if package != "org"
    )


def test_only_the_builder_and_the_federation_build_an_activity_model():
    """The inter-activity model is built in two places: the builder's
    fresh pair for a standalone environment, and a federation's one pair,
    which every domain environment reads.  A third constructor would be a
    copy of the model to keep in step."""
    src = ROOT / "src/repro"
    builds = {
        str(path.relative_to(ROOT))
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", ""))
        in ("ActivityRegistry", "DependencyGraph")
    }
    assert builds == {
        "src/repro/environment/builder.py",
        "src/repro/federation/federation.py",
    }, sorted(builds)


#: the prose a reader follows to the code: README, design, verify recipe
DOCS = ["README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"]
FENCED = re.compile(r"^```.*?^```", re.S | re.M)
BACKTICKED = re.compile(r"`([^`]+)`")
DOTTED = re.compile(r"\brepro(?:\.\w+)+")
CAMEL_CASE = re.compile(r"\b_?[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+\b")


def _resolves(path: str) -> bool:
    """Whether dotted *path* names a module, or an attribute chain on one."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def _library_names() -> set[str]:
    names = set(dir(builtins))
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        names.update(vars(importlib.import_module(info.name)))
    return names


@pytest.mark.parametrize("doc", DOCS)
def test_doc_references_resolve(doc):
    """A backticked ``repro.…`` path in the docs must import, and a
    backticked CamelCase name must be a library name or a builtin, so a
    class renamed or removed in code cannot live on in the prose.
    Fenced code blocks are skipped; their names run or fail for real."""
    text = FENCED.sub(
        lambda block: "\n" * block.group().count("\n"),
        (ROOT / doc).read_text(encoding="utf-8"),
    )
    names = _library_names()
    stale = []
    for match in BACKTICKED.finditer(text):
        line = text.count("\n", 0, match.start()) + 1
        stale += [
            f"{doc}:{line}: {path}"
            for path in DOTTED.findall(match.group(1))
            if not _resolves(path)
        ]
        stale += [
            f"{doc}:{line}: {name}"
            for name in CAMEL_CASE.findall(match.group(1))
            if name not in names
        ]
    assert not stale, "stale names in the docs:\n" + "\n".join(stale)


class TestExchangeCallSurface:
    """The unified ExchangeRequest currency must not drift.

    Every exchange entry point — in-process, client stub, federation —
    takes exactly one argument, the request, so the three surfaces stay
    interchangeable and there is no second call shape to keep in step.
    """

    SHAPE = ("self", "request")

    def _assert_one_shape(self, func, owner: str) -> None:
        parameters = list(inspect.signature(func).parameters.values())
        names = tuple(p.name for p in parameters)
        assert names == self.SHAPE, (
            f"{owner} drifted from the unified surface: {names}"
        )
        request = parameters[1]
        assert request.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert request.default is inspect.Parameter.empty

    def test_all_exchange_surfaces_share_one_shape(self):
        from repro.environment.environment import CSCWEnvironment
        from repro.environment.server import EnvironmentClient
        from repro.federation.federation import Federation

        self._assert_one_shape(CSCWEnvironment.exchange, "CSCWEnvironment.exchange")
        self._assert_one_shape(EnvironmentClient.exchange, "EnvironmentClient.exchange")
        self._assert_one_shape(
            Federation.federated_exchange, "Federation.federated_exchange"
        )

    def test_request_wire_form_round_trips(self):
        from repro.environment.environment import ExchangeRequest

        request = ExchangeRequest(
            "ana", "joan", "app0", "app1", {"k": "v"},
            deadline=4.5, priority=2, shed_class="bulk",
        )
        assert ExchangeRequest.from_document(request.to_document()) == request
