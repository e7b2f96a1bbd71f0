"""POT thresholding, tabu search and node-shift operations."""

import numpy as np
import pytest

from repro.core import (
    PeakOverThreshold,
    neighbours,
    random_node_shift,
    repair_options,
    shift_type_1,
    shift_type_2,
    shift_type_3,
    tabu_search,
)
from repro.core.nodeshift import sample
from repro.simulator import Topology, initial_topology


class TestPOT:
    def test_warmup_returns_minus_inf(self):
        pot = PeakOverThreshold(calibration_size=10)
        for value in np.linspace(0.5, 0.9, 9):
            assert pot.update(value) == -np.inf
        assert not pot.calibrated

    def test_threshold_below_bulk(self):
        pot = PeakOverThreshold(calibration_size=20, risk=1e-2)
        rng = np.random.default_rng(0)
        threshold = -np.inf
        for _ in range(100):
            threshold = pot.update(0.7 + 0.05 * rng.normal())
        assert threshold < 0.7
        assert np.isfinite(threshold)

    def test_sharp_dip_crosses_threshold(self):
        pot = PeakOverThreshold(calibration_size=20, risk=2e-2)
        rng = np.random.default_rng(1)
        for _ in range(80):
            pot.update(0.8 + 0.02 * rng.normal())
        threshold = pot.threshold
        # A dramatic dip lands below the fitted threshold.
        assert 0.3 < threshold

    def test_adapts_to_regime_change(self):
        pot = PeakOverThreshold(calibration_size=20, max_history=100)
        rng = np.random.default_rng(2)
        for _ in range(100):
            pot.update(0.8 + 0.02 * rng.normal())
        high_regime = pot.threshold
        for _ in range(200):
            pot.update(0.4 + 0.02 * rng.normal())
        low_regime = pot.threshold
        assert low_regime < high_regime

    def test_history_capped(self):
        pot = PeakOverThreshold(calibration_size=10, max_history=50)
        for i in range(200):
            pot.update(float(i))
        assert pot.n_observations == 50

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PeakOverThreshold(risk=0.0)
        with pytest.raises(ValueError):
            PeakOverThreshold(init_quantile=1.0)
        with pytest.raises(ValueError):
            PeakOverThreshold(calibration_size=2)

    def test_gpd_fit_constant_excesses(self):
        sigma, xi = PeakOverThreshold._fit_gpd(np.full(10, 0.1))
        assert sigma > 0
        assert xi == 0.0

    def test_gpd_fit_clamped(self):
        rng = np.random.default_rng(3)
        excesses = rng.exponential(0.1, size=50)
        sigma, xi = PeakOverThreshold._fit_gpd(excesses)
        assert sigma > 0
        assert -0.5 <= xi <= 0.49


class TestNodeShifts:
    @pytest.fixture
    def after_failure(self):
        """Broker 1 of a 2-LEI topology failed: detached with orphans."""
        topo = initial_topology(8, 2)
        orphans = topo.lei(1)
        return topo.detach(1), list(orphans)

    def test_type1_increases_broker_count(self, after_failure):
        stripped, orphans = after_failure
        for option in shift_type_1(stripped, orphans):
            assert len(option.brokers) == len(stripped.brokers) + 2
            assert set(orphans) <= option.attached

    def test_type1_needs_two_orphans(self, after_failure):
        stripped, orphans = after_failure
        assert shift_type_1(stripped, orphans[:1]) == []

    def test_type2_keeps_broker_count(self, after_failure):
        stripped, orphans = after_failure
        options = shift_type_2(stripped, orphans)
        assert len(options) == len(stripped.brokers)
        for option in options:
            assert option.brokers == stripped.brokers
            assert set(orphans) <= set(option.assignment)

    def test_type3_adds_one_broker(self, after_failure):
        stripped, orphans = after_failure
        options = shift_type_3(stripped, orphans)
        assert len(options) == len(orphans)
        for option in options:
            assert len(option.brokers) == len(stripped.brokers) + 1
            new_broker = next(iter(option.brokers - stripped.brokers))
            assert new_broker in orphans

    def test_fig1_broker_count_semantics(self, after_failure):
        """Fig. 1: relative to the pre-failure count B, Type 1 gives
        B+1 brokers, Type 2 gives B-1, Type 3 gives B."""
        stripped, orphans = after_failure
        pre_failure = len(stripped.brokers) + 1  # the failed one
        for option in shift_type_1(stripped, orphans):
            assert len(option.brokers) == pre_failure + 1
        for option in shift_type_2(stripped, orphans):
            assert len(option.brokers) == pre_failure - 1
        for option in shift_type_3(stripped, orphans):
            assert len(option.brokers) == pre_failure

    def test_repair_options_all_attach_orphans(self, after_failure):
        stripped, orphans = after_failure
        options = repair_options(stripped, orphans)
        assert options
        for option in options:
            for orphan in orphans:
                assert orphan in option.attached

    def test_repair_options_deduplicated(self, after_failure):
        stripped, orphans = after_failure
        options = repair_options(stripped, orphans)
        keys = [o.canonical_key() for o in options]
        assert len(keys) == len(set(keys))


class TestNeighbourhood:
    def test_neighbours_are_valid_and_distinct(self):
        topo = initial_topology(8, 2)
        options = neighbours(topo)
        assert options
        keys = {o.canonical_key() for o in options}
        assert topo.canonical_key() not in keys
        assert len(keys) == len(options)
        for option in options:
            assert option.attached == topo.attached

    def test_contains_merge_and_split(self):
        topo = initial_topology(9, 3)
        counts = {len(o.brokers) for o in neighbours(topo)}
        assert (3 - 1) in counts  # merge
        assert (3 + 1) in counts  # split

    def test_split_options_equal_promote_then_reassign(self):
        # Each split option is built as one Topology; the chain it
        # replaced (promote the worker, then reassign each mover) is
        # kept here as the oracle.  Same options, keys and assignment
        # order, in the same order, on random topologies (some with
        # unattached hosts, as after a failure).
        def chained(topology):
            results = []
            brokers = sorted(topology.brokers)
            if len(brokers) >= 2:
                for broker in brokers:
                    for target in brokers:
                        if broker != target:
                            results.append(topology.demote(broker, target))
            for broker in brokers:
                lei = topology.lei(broker)
                if len(lei) < 2:
                    continue
                for worker in lei:
                    split = topology.promote(worker)
                    for mover in [w for w in lei if w != worker][:: 2]:
                        split = split.reassign(mover, worker)
                    results.append(split)
            for worker in topology.workers:
                for target in brokers:
                    if target != topology.assignment[worker]:
                        results.append(topology.reassign(worker, target))
            unique = {}
            for result in results:
                unique[result.canonical_key()] = result
            unique.pop(topology.canonical_key(), None)
            return list(unique.values())

        rng = np.random.default_rng(5)
        for _ in range(40):
            topology = _random_topology(rng)
            new = neighbours(topology)
            old = chained(topology)
            assert [t.canonical_key() for t in new] == [
                t.canonical_key() for t in old]
            assert [list(t.assignment.items()) for t in new] == [
                list(t.assignment.items()) for t in old]

    def test_moves_are_distinct_and_never_the_input(self):
        # neighbours() keeps no dedup: every merge, split and
        # reassignment it builds is a distinct topology other than the
        # input, on random topologies with all or only some workers
        # attached (as after a failure).
        rng = np.random.default_rng(11)
        for _ in range(300):
            topology = _random_topology(rng)
            brokers = len(topology.brokers)
            merges = brokers * (brokers - 1)
            splits = sum(
                len(topology.lei(b)) for b in topology.brokers
                if len(topology.lei(b)) >= 2
            )
            reassignments = len(topology.workers) * (brokers - 1)
            options = neighbours(topology)
            assert len(options) == merges + splits + reassignments
            keys = {option.canonical_key() for option in options}
            assert len(keys) == len(options)
            assert topology.canonical_key() not in keys

    def test_sample_keeps_small_lists_and_rng_untouched(self):
        options = neighbours(initial_topology(8, 2))
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert sample(options, len(options), rng) is options
        assert rng.bit_generator.state == state

    def test_random_shift_returns_neighbour(self, rng):
        topo = initial_topology(8, 2)
        shifted = random_node_shift(topo, rng)
        assert shifted.canonical_key() != topo.canonical_key()

    def test_random_shift_degenerate_topology(self, rng):
        topo = Topology(2, brokers=[0], assignment={1: 0})
        assert random_node_shift(topo, rng) == topo


def _random_topology(rng):
    """A random topology over 2-16 hosts whose workers may be only
    partly attached, as after a broker failure."""
    n_hosts = int(rng.integers(2, 17))
    hosts = rng.permutation(n_hosts).tolist()
    n_brokers = int(rng.integers(1, n_hosts // 2 + 1))
    brokers, rest = hosts[:n_brokers], hosts[n_brokers:]
    attached = rest[: int(rng.integers(0, len(rest) + 1))]
    return Topology(n_hosts, brokers, {
        worker: brokers[int(rng.integers(n_brokers))] for worker in attached
    })


def per_candidate(score):
    """A tabu objective applying ``score`` to each candidate."""
    return lambda candidates, keys, segments: [score(t) for t in candidates]


class TestTabuSearch:
    def _objective_by_broker_count(self, target):
        return per_candidate(lambda topo: abs(len(topo.brokers) - target))

    def test_finds_target_broker_count(self):
        topo = initial_topology(12, 2)
        result = tabu_search(
            topo,
            objective=self._objective_by_broker_count(4),
            neighbourhood=neighbours,
            max_iterations=10,
        )
        assert len(result.best.brokers) == 4
        assert result.best_score == 0

    def test_never_worse_than_start(self):
        topo = initial_topology(8, 2)
        objective = self._objective_by_broker_count(2)
        result = tabu_search(topo, objective, neighbours, max_iterations=5)
        assert result.best_score <= objective([topo], None, (1,))[0]

    def test_evaluation_count_reported(self):
        topo = initial_topology(8, 2)
        result = tabu_search(
            topo, self._objective_by_broker_count(3), neighbours,
            max_iterations=3, patience=10,
        )
        assert result.n_evaluations > 1
        assert result.n_iterations <= 3

    def test_tabu_list_blocks_revisits(self):
        topo = initial_topology(8, 2)
        visited = []

        def objective(candidates, keys, segments):
            visited.extend(t.canonical_key() for t in candidates)
            return [1.0] * len(candidates)  # flat: only tabu stops cycling

        tabu_search(topo, objective, neighbours,
                    tabu_size=1000, max_iterations=5, patience=100)
        # The current topology is never re-evaluated as a candidate.
        assert visited.count(topo.canonical_key()) == 1

    def test_patience_stops_early(self):
        topo = initial_topology(8, 2)
        result = tabu_search(
            topo, per_candidate(lambda t: 1.0), neighbours,
            max_iterations=50, patience=2,
        )
        assert result.n_iterations <= 3

    def test_parameter_validation(self):
        topo = initial_topology(4, 1)
        with pytest.raises(ValueError):
            tabu_search(topo, per_candidate(lambda t: 0.0), neighbours, tabu_size=0)
        with pytest.raises(ValueError):
            tabu_search(topo, per_candidate(lambda t: 0.0), neighbours, max_iterations=0)

    def test_empty_neighbourhood_graceful(self):
        topo = Topology(2, brokers=[0], assignment={1: 0})
        result = tabu_search(topo, per_candidate(lambda t: 5.0), neighbours)
        assert result.best == topo
        assert result.best_score == 5.0


class TestReassignmentNeighbours:
    def test_broker_count_preserved(self):
        from repro.core.nodeshift import reassignment_neighbours

        topo = initial_topology(8, 2)
        options = reassignment_neighbours(topo)
        assert options
        for option in options:
            assert option.brokers == topo.brokers
            assert option.attached == topo.attached

    def test_count_matches_workers_times_other_brokers(self):
        from repro.core.nodeshift import reassignment_neighbours

        topo = initial_topology(9, 3)
        options = reassignment_neighbours(topo)
        # Each of the 6 workers can move to 2 other brokers.
        assert len(options) == 6 * 2

    def test_single_broker_no_moves(self):
        from repro.core.nodeshift import reassignment_neighbours

        topo = Topology(4, brokers=[0], assignment={1: 0, 2: 0, 3: 0})
        assert reassignment_neighbours(topo) == []
