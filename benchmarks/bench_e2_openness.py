"""E2 — Figure 2 vs Figure 3: closed pairwise gateways vs the environment.

Paper claim (sections 3-4): without an environment, N heterogeneous
applications need O(N^2) hand-built gateways and anything unbuilt simply
cannot interoperate; with the environment, N converters give full
coverage.

Regenerated table: for N = 2..12, integration artifacts needed for full
coverage in each world, the cost ratio, and the coverage a fixed budget
of N artifacts buys in each world.
"""

from __future__ import annotations

from repro.apps.base import GroupwareApp
from repro.baselines.closed import ClosedWorld
from repro.environment.registry import Q_DIFFERENT_TIME_DIFFERENT_PLACE, AppDescriptor
from repro.environment.environment import CSCWEnvironment, ExchangeRequest
from repro.sim.world import World

from bench_common import build_environment, synthetic_converter


class _SyntheticApp(GroupwareApp):
    quadrants = [Q_DIFFERENT_TIME_DIFFERENT_PLACE]

    def __init__(self, index: int) -> None:
        self.app_name = f"app{index}"
        super().__init__()
        self._index = index

    def converter(self):
        return synthetic_converter(self._index)


def _closed_world(n: int) -> ClosedWorld:
    world = ClosedWorld()
    for index in range(n):
        world.add_app(_SyntheticApp(index))
    return world


def _open_world(n: int) -> tuple[CSCWEnvironment, list[_SyntheticApp]]:
    world = World(seed=1)
    env = build_environment(world, n_people=2)
    apps = [_SyntheticApp(index) for index in range(n)]
    for app in apps:
        app.attach(env)
    return env, apps


def test_e2_integration_cost_and_coverage(benchmark):
    """The headline O(N^2) vs O(N) table."""
    sizes = list(range(2, 13))
    rows = []
    for n in sizes:
        closed = _closed_world(n)
        closed_cost = closed.build_all_gateways()
        env, apps = _open_world(n)
        open_cost = env.integration_cost()

        # Coverage under a fixed budget of N artifacts.
        budget_world = _closed_world(n)
        built = 0
        for source in budget_world.app_names():
            for target in budget_world.app_names():
                if built >= n:
                    break
                if source != target:
                    budget_world.build_gateway(source, target)
                    built += 1
        rows.append(
            (n, closed_cost, open_cost, closed_cost / open_cost,
             budget_world.interop_coverage(), env.interop_coverage())
        )

    print("\nE2: integration cost to full interoperability")
    print(f"{'N':>3} {'closed(N^2-N)':>14} {'open(N)':>8} {'ratio':>6} "
          f"{'closed@N-budget':>16} {'open@N-budget':>14}")
    for n, closed_cost, open_cost, ratio, closed_cov, open_cov in rows:
        print(f"{n:>3} {closed_cost:>14} {open_cost:>8} {ratio:>6.1f} "
              f"{closed_cov:>15.0%} {open_cov:>13.0%}")

    # Shape: closed grows quadratically, open linearly; ratio = N-1.
    for n, closed_cost, open_cost, ratio, closed_cov, open_cov in rows:
        assert closed_cost == n * (n - 1)
        assert open_cost == n
        assert ratio == n - 1
        assert open_cov == 1.0
        assert closed_cov < 1.0 or n == 2

    # Time the open-world end-to-end exchange (the price of generality).
    env, apps = _open_world(4)

    def exchange_once():
        return env.exchange(ExchangeRequest(
            "p0", "p1", "app0", "app1",
            {"fmt0-title": "t", "fmt0-body": "b"},
        ))

    outcome = benchmark(exchange_once)
    assert outcome.delivered and outcome.translated


def test_e2_closed_world_drops_unbuilt_pairs(benchmark):
    """Delivery rate in a closed world with partial integration."""
    n = 6
    closed = _closed_world(n)
    # Only a star around app0 was ever built (a realistic history).
    for index in range(1, n):
        closed.build_gateway("app0", f"app{index}")
        closed.build_gateway(f"app{index}", "app0")

    def run_workload() -> int:
        delivered = 0
        for source in range(n):
            for target in range(n):
                if source == target:
                    continue
                ok = closed.send(
                    f"app{source}", f"app{target}", "user",
                    {f"fmt{source}-title": "t", f"fmt{source}-body": "b"},
                )
                delivered += int(ok)
        return delivered

    delivered = benchmark(run_workload)
    total = n * (n - 1)
    star_pairs = 2 * (n - 1)
    print(f"\nE2b: star-integrated closed world delivers {delivered}/{total} "
          f"pairs ({delivered / total:.0%}); environment world delivers 100%")
    assert delivered == star_pairs
