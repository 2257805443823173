"""Meta-tests enforcing API hygiene across the whole library.

Deliverable (e) requires doc comments on every public item; these tests
make that a checked property rather than a hope, and verify that every
package's ``__all__`` names resolve.
"""

from __future__ import annotations

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
WALL_CLOCK = re.compile(r"time\.(time|perf_counter|monotonic)\(|datetime\.now\(")


def test_library_never_reads_the_wall_clock():
    """Simulated time is the library's contract: a stray wall-clock read
    anywhere under src/ silently breaks same-seed reproducibility."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    hits = [
        f"{path.relative_to(src)}:{number}: {line.strip()}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if WALL_CLOCK.search(line)
    ]
    assert not hits, "wall-clock reads in src/:\n" + "\n".join(hits)


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
