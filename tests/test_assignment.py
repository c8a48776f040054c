import heapq
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    enumerate_partial_assignments, k_best_oracle, kbest_dp, lex_key, murty_reference,
    ranked_alone, ranked_stack,
)

import mbmtrack.assignment as assignment
import mbmtrack.mbm as mbm
from mbmtrack.assignment import FORBIDDEN, Assignment, k_best
from mbmtrack.errors import InputError
from mbmtrack.sim import builtin_scenario, generate_run_measurements, generate_truth

F = FORBIDDEN


def random_matrix(rng, n_rows, n_cols, forbidden_frac=0.3, low=-5.0, high=5.0):
    costs = rng.uniform(low, high, size=(n_rows, n_cols))
    costs[rng.random(size=costs.shape) < forbidden_frac] = F
    return costs


def forbidden_pattern(rng, max_size=8):
    """Tie-free costs up to max_size x max_size with a random FORBIDDEN pattern,
    often including rows and columns that are forbidden throughout."""
    n_rows, n_cols = rng.integers(1, max_size + 1, size=2)
    costs = random_matrix(rng, n_rows, n_cols, rng.uniform(0.0, 0.9), -10.0, 4.0)
    costs[rng.random(n_rows) < 0.2] = F
    costs[:, rng.random(n_cols) < 0.2] = F
    return costs


def bitwise(assignments):
    return [(a.row_to_col, a.total_cost.hex()) for a in assignments]


class TestLsapLoader:
    def test_import_loads_neither_scipy_optimize_nor_linalg(self):
        # Their package inits take most of a process's set-up.
        src = Path(assignment.__file__).resolve().parents[1]
        code = (
            "import sys, mbmtrack, mbmtrack.cli; "
            "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_solver_is_the_one_scipy_optimize_exports(self):
        # A scipy release that moves or wraps the compiled solver fails here.
        import scipy.optimize

        assert assignment.linear_sum_assignment is scipy.optimize.linear_sum_assignment

    def test_missing_extension_names_the_scipy_version(self, monkeypatch):
        from importlib.machinery import PathFinder

        import scipy

        monkeypatch.setattr(PathFinder, "find_spec", classmethod(lambda cls, *args: None))
        with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no compiled"):
            assignment._load_lsap()


class TestSolveOptimal:
    """The best assignment alone: ``k_best(costs, 1)``."""

    def test_empty_matrices(self):
        for shape in [(0, 0), (0, 3), (4, 0)]:
            [result] = k_best(np.zeros(shape), 1)
            assert result.row_to_col == {}
            assert result.total_cost == 0.0

    def test_two_by_two(self):
        [result] = k_best(np.array([[-5.0, -1.0], [-2.0, -4.0]]), 1)
        assert result.row_to_col == {0: 0, 1: 1}
        assert result.total_cost == -9.0

    def test_positive_entry_left_unassigned(self):
        [result] = k_best(np.array([[3.0]]), 1)
        assert result.row_to_col == {}
        assert result.total_cost == 0.0

    def test_all_forbidden(self):
        [result] = k_best(np.full((2, 3), F), 1)
        assert result.row_to_col == {}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            costs = random_matrix(rng, rng.integers(1, 5), rng.integers(1, 5))
            expected_map, expected_cost = k_best_oracle(costs, 1)[0]
            [result] = k_best(costs, 1)
            assert result.total_cost == pytest.approx(expected_cost, abs=1e-12)
            assert result.row_to_col == expected_map


class TestKBest:
    def test_k1_equals_optimal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            costs = random_matrix(rng, 3, 4)
            best = k_best(costs, 1)
            assert len(best) == 1
            opt = k_best(costs, 6)[0]
            assert best[0].total_cost == pytest.approx(opt.total_cost, abs=1e-12)
            assert best[0].row_to_col == opt.row_to_col

    def test_two_by_two_ranked(self):
        # Brute force over the 7 partial assignments of [[-5,-1],[-2,-4]]
        # yields costs -9, -5, -4, -3, -2, -1, 0.
        costs = np.array([[-5.0, -1.0], [-2.0, -4.0]])
        expected = [cost for _, cost in k_best_oracle(costs, 3)]
        assert expected == [-9.0, -5.0, -4.0]
        assert [a.total_cost for a in k_best(costs, 3)] == expected

    def test_requesting_more_than_feasible(self):
        costs = np.array([[-5.0, -1.0], [-2.0, -4.0]])
        results = k_best(costs, 50)
        assert len(results) == 7
        assert [a.total_cost for a in results] == [-9.0, -5.0, -4.0, -3.0, -2.0, -1.0, 0.0]

    def test_costs_nondecreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            costs = random_matrix(rng, 4, 5)
            results = k_best(costs, 10)
            values = [a.total_cost for a in results]
            assert values == sorted(values)

    def test_no_forbidden_selected_and_injective(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            costs = random_matrix(rng, 4, 5, forbidden_frac=0.5)
            for a in k_best(costs, 10):
                cols = list(a.row_to_col.values())
                assert len(cols) == len(set(cols))
                for r, c in a.row_to_col.items():
                    assert np.isfinite(costs[r, c])

    def test_exact_match_with_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            costs = random_matrix(rng, rng.integers(1, 5), rng.integers(1, 6))
            expected = k_best_oracle(costs, 10)
            got = k_best(costs, 10)
            assert len(got) == len(expected)
            for a, (e_map, e_cost) in zip(got, expected):
                assert a.total_cost == pytest.approx(e_cost, abs=1e-12)
                assert a.row_to_col == e_map

    def test_tie_break_is_lexicographic(self):
        # Every assignment of an all-zero matrix costs 0; the ranking must
        # follow the row_to_col lexicographic order with unassigned first.
        costs = np.zeros((2, 2))
        results = k_best(costs, 7)
        keys = [lex_key(a.row_to_col, 2) for a in results]
        assert keys == sorted(keys)
        assert results[0].row_to_col == {}

    def test_integer_entries_with_ties_match_oracle(self):
        rng = np.random.default_rng(2024)
        values = np.array([-3.0, -1.0, 0.0, 2.0, F])
        for _ in range(200):
            shape = (rng.integers(1, 5), rng.integers(1, 5))
            costs = values[rng.integers(0, len(values), size=shape)]
            expected = k_best_oracle(costs, 5)
            got = k_best(costs, 5)
            assert len(got) == len(expected)
            for a, (e_map, e_cost) in zip(got, expected):
                assert a.total_cost == e_cost
                assert a.row_to_col == e_map

    @pytest.mark.parametrize(
        "costs, k",
        [
            (
                [[F, -0.004, -0.003, 0.002, -0.003], [-0.002, -0.001, -0.003, 0.002, -0.001],
                 [F, -0.004, -0.004, 0.001, F], [0, F, -0.001, -0.004, 0.002],
                 [-0.002, F, F, 0.002, F]],
                10,
            ),
            (
                [[F, -0.001, F, -0.004], [-0.001, F, -0.002, F], [F, F, -0.004, F],
                 [0.001, -0.002, 0, F], [-0.003, 0.002, -0.003, -0.003],
                 [-0.002, F, -0.002, -0.004]],
                11,
            ),
        ],
    )
    def test_float_sum_near_ties_match_oracle(self, costs, k):
        # In each matrix a Murty node's optimum sums, in row order, to an ulp
        # above an assignment of its subtree whose exact cost ties with it and
        # whose float cost ties with the k-th best.  Without the tie window
        # of _TIE_RTOL the ranking never expands that subtree.
        expected = k_best_oracle(costs, k)
        got = k_best(np.array(costs), k)
        assert [(a.row_to_col, a.total_cost) for a in got] == expected

    def test_row_shift_property(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            costs = random_matrix(rng, 3, 4, forbidden_frac=0.2)
            shift = rng.uniform(-2.0, 2.0)
            shifted = costs.copy()
            row = rng.integers(0, 3)
            finite = np.isfinite(shifted[row])
            shifted[row, finite] += shift
            base = {tuple(sorted(m.items())): c for m, c in enumerate_partial_assignments(costs)}
            moved = {
                tuple(sorted(m.items())): c for m, c in enumerate_partial_assignments(shifted)
            }
            assert base.keys() == moved.keys()
            for key, cost in base.items():
                delta = shift if any(r == row for r, _ in key) else 0.0
                assert moved[key] == pytest.approx(cost + delta, abs=1e-12)
            # the implementation sees the same ordering among row-agreeing pairs
            full = k_best(costs, 200)
            full_shifted = k_best(shifted, 200)
            order = [tuple(sorted(a.row_to_col.items())) for a in full if row in a.row_to_col]
            order_shifted = [
                tuple(sorted(a.row_to_col.items()))
                for a in full_shifted
                if row in a.row_to_col
            ]
            assert order == order_shifted

    def test_fast_path_matches_exact_path_without_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            costs = random_matrix(rng, 4, 4)
            exact = k_best(costs, 6)
            fast = ranked_alone(costs, 6, False)
            assert [a.row_to_col for a in exact] == [a.row_to_col for a in fast]

    def test_input_validation(self):
        with pytest.raises(InputError):
            k_best(np.zeros((2, 2)), 0)
        with pytest.raises(InputError):
            k_best(np.array([[np.nan]]), 1)
        with pytest.raises(InputError):
            k_best(np.array([[-np.inf]]), 1)
        with pytest.raises(InputError):
            k_best(np.zeros(3), 1)

    # A numpy complex element makes a complex array, which a float cast
    # would truncate to its real part with only a warning.
    @pytest.mark.parametrize("entry", [1.0 + 2.0j, {}, "x", np.complex128(1.0 + 2.0j)])
    def test_non_real_entries_rejected(self, entry):
        with pytest.raises(InputError, match="cost matrix entries"):
            k_best([[0.0, entry]], 1)


@st.composite
def _forbidden_patterns(draw):
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = rng.uniform(-10.0, 4.0, size=(n_rows, n_cols))
    costs *= 10.0 ** draw(st.sampled_from([-300, -6, 0, 6, 150, 300]))
    cells = st.lists(st.booleans(), min_size=n_rows * n_cols, max_size=n_rows * n_cols)
    costs[np.reshape(draw(cells), costs.shape)] = F
    costs[sorted(draw(st.sets(st.integers(0, n_rows - 1))))] = F
    costs[:, sorted(draw(st.sets(st.integers(0, n_cols - 1))))] = F
    return costs


class TestMurtyReference:
    """The ranking, under either tie rule, against the plain Murty loop that
    solves every child."""

    @settings(max_examples=300, deadline=None)
    @given(_forbidden_patterns(), st.integers(1, 30), st.booleans())
    def test_bitwise_equal_on_random_forbidden_patterns(self, costs, k, resolve_ties):
        got = ranked_alone(costs, k, resolve_ties)
        assert bitwise(got) == bitwise(murty_reference(costs, k, resolve_ties=resolve_ties))

    def test_bitwise_equal_on_seeded_patterns(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            costs = forbidden_pattern(rng)
            k = int(rng.integers(1, 31))
            for resolve_ties in (True, False):
                got = ranked_alone(costs, k, resolve_ties)
                expected = murty_reference(costs, k, resolve_ties=resolve_ties)
                assert bitwise(got) == bitwise(expected)

    def test_ties_without_resolution_keep_discovery_order(self):
        # On integer costs with ties the fast path returns the reference's
        # solutions in nondecreasing cost, ties in discovery order rather than
        # lexicographic order.  Every row and column keeps an admissible entry
        # so neither drops one: both solve the same problem.
        rng = np.random.default_rng(11)
        values = np.array([-3.0, -1.0, 0.0, 2.0, F])
        for _ in range(200):
            n_rows, n_cols = rng.integers(1, 6, size=2)
            costs = values[rng.integers(0, len(values), size=(n_rows, n_cols))]
            costs[np.arange(n_rows), np.arange(n_rows) % n_cols] = -1.0
            costs[np.arange(n_cols) % n_rows, np.arange(n_cols)] = -1.0
            k = int(rng.integers(1, 20))
            assert bitwise(k_best(costs, k)) == bitwise(murty_reference(costs, k))
            fast = ranked_alone(costs, k, False)
            values_fast = [a.total_cost for a in fast]
            assert values_fast == sorted(values_fast)
            ranked = sorted(fast, key=lambda a: (a.total_cost, lex_key(a.row_to_col, n_rows)))
            assert bitwise(ranked) == bitwise(murty_reference(costs, k, resolve_ties=False))


@st.composite
def _cost_stacks(draw):
    """Stacks of one shape with forbidden rows, columns and whole matrices,
    and duplicate rows, which tie exactly, with one k per matrix."""
    n_mats = draw(st.integers(1, 6))
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = rng.uniform(-10.0, 4.0, size=(n_mats, n_rows, n_cols))
    costs[rng.random(costs.shape) < draw(st.floats(0.0, 1.0))] = F
    costs[rng.random((n_mats, n_rows)) < 0.2] = F
    costs[np.broadcast_to(rng.random((n_mats, 1, n_cols)) < 0.2, costs.shape)] = F
    costs[rng.random(n_mats) < 0.2] = F
    if n_rows > 1 and draw(st.booleans()):
        costs[:, 1] = costs[:, 0]
    return costs, draw(st.lists(st.integers(1, 12), min_size=n_mats, max_size=n_mats))


class TestStackedKBest:
    """``_ranked_columns`` ranks each matrix of a stack bitwise as it ranks alone."""

    @settings(max_examples=300, deadline=None)
    @given(_cost_stacks(), st.booleans())
    def test_stack_equals_each_matrix_alone(self, stack, resolve_ties):
        costs, ks = stack
        alone = [bitwise(ranked_alone(c, k, resolve_ties)) for c, k in zip(costs, ks)]
        assert ranked_stack(costs, ks, resolve_ties) == alone

    def test_stack_longer_than_a_chunk(self, monkeypatch):
        # Matrices of very different scales share chunks, and the stack
        # spans several of them.  Every LSAP input is bitwise one the matrix
        # gets alone, and each of its entries is a caller's entry, a 0.0
        # slack or FORBIDDEN: no finite stand-in marks an exclusion.  A
        # chunk solves its roots first, in matrix order, and then each of its
        # matrices its Murty children in that matrix's own order.  A
        # matrix's root is the caller's matrix as given, then row i's zero
        # slack at column C + i, every other entry FORBIDDEN; a matrix that
        # admits no entry takes no solve.
        rng = np.random.default_rng(23)
        n_mats = 2 * assignment._CHUNK + 5
        costs = rng.uniform(-10.0, 4.0, size=(n_mats, 6, 5))
        costs *= 10.0 ** rng.integers(-3, 4, size=(n_mats, 1, 1))
        costs[rng.random(costs.shape) < 0.5] = F
        costs[::7] = F
        ks = rng.integers(1, 20, size=n_mats).tolist()
        admitted = np.concatenate((costs.ravel(), [0.0, F]))
        slacks = np.where(np.eye(6, dtype=bool), 0.0, F)
        solve, inputs = assignment.linear_sum_assignment, []

        def recorded(node):
            inputs.append(node.copy())
            return solve(node)

        monkeypatch.setattr(assignment, "linear_sum_assignment", recorded)
        for resolve_ties in (True, False):
            got = ranked_stack(costs, ks, resolve_ties)
            stacked_inputs = inputs.copy()
            inputs.clear()
            alone, solves_alone = [], []
            for c, kg in zip(costs, ks):
                n_before = len(inputs)
                alone.append(bitwise(ranked_alone(c, kg, resolve_ties)))
                solves_alone.append(inputs[n_before:])
            assert got == alone
            expected = []
            for start in range(0, n_mats, assignment._CHUNK):
                chunk = solves_alone[start:start + assignment._CHUNK]
                expected += [solves[0] for solves in chunk if solves]
                expected += [node for solves in chunk for node in solves[1:]]
            assert len(stacked_inputs) == len(expected) > n_mats
            for a, b in zip(stacked_inputs, expected):
                assert a.shape == b.shape == (6, 5 + 6) and np.array_equal(a, b)
                assert np.isin(a, admitted).all()
            for g, (c, solves) in enumerate(zip(costs, solves_alone)):
                assert (not solves) == (g % 7 == 0)
                if solves:
                    assert np.array_equal(solves[0], np.hstack((c, slacks)))
            inputs.clear()
            for c, kg, ranked in zip(costs, ks, got):
                assert ranked == bitwise(murty_reference(c, kg, resolve_ties))

    def test_empty_shapes(self):
        assert ranked_stack(np.zeros((0, 3, 2)), [], True) == []
        for shape in [(1, 0, 3), (3, 4, 0), (2, 0, 0)]:
            empty = [[({}, (0.0).hex())]] * shape[0]
            assert ranked_stack(np.zeros(shape), [2] * shape[0], True) == empty

    def test_stack_validation(self):
        # k_best ranks one matrix with one integer k; only the private
        # ranking takes a stack, and it still rejects NaN and -inf entries.
        for costs in (np.zeros((2, 2, 2)), np.zeros((1, 1, 1, 1))):
            with pytest.raises(InputError, match="costs must be a matrix"):
                k_best(costs, 1)
        for k in ([1], (1,), 0, True, 2.0, None, np.array(2.0)):
            with pytest.raises(InputError, match="k must be"):
                k_best(np.zeros((2, 2)), k)
        for value in (np.nan, -np.inf):
            bad = np.zeros((2, 2, 2))
            bad[1, 0, 1] = value
            with pytest.raises(InputError):
                assignment._ranked_columns(bad, [1, 1], True)


class _RecordingHeap:
    """Stands in for ``heapq`` in the assignment module and keeps every entry
    pushed and popped: (cost or bound, discovery, row, node, solution, its
    flat indices, selected entries, exact)."""

    def __init__(self):
        self.pushed, self.popped = [], []

    def heappush(self, heap, entry):
        self.pushed.append(entry)
        heapq.heappush(heap, entry)

    def heappop(self, heap):
        entry = heapq.heappop(heap)
        self.popped.append(entry)
        return entry


class TestNoWastedSolve:
    """Every LSAP solve k_best makes is feasible, and it solves only the
    children that reach the top of its queue."""

    @staticmethod
    def _counting(monkeypatch, module, scale):
        solve = module.linear_sum_assignment
        solves = {"all": 0, "feasible": 0}

        def counted(node):
            rows, cols = solve(node)
            solves["all"] += 1
            # Finite entries are at most `scale` in magnitude.  An excluded
            # entry is FORBIDDEN in k_best's solves and a larger finite
            # sentinel in the reference's.
            solves["feasible"] += bool(node[rows, cols].max() <= scale)
            return rows, cols

        monkeypatch.setattr(module, "linear_sum_assignment", counted)
        return solves

    def test_solves_are_feasible_and_one_per_popped_child(self, monkeypatch):
        rng = np.random.default_rng(17)
        fewer_than_reference = 0
        for _ in range(200):
            costs = forbidden_pattern(rng)
            finite = np.isfinite(costs)
            if not finite.any():
                continue
            scale = float(np.abs(costs[finite]).max())
            k = int(rng.integers(1, 31))
            for resolve_ties in (True, False):
                queue = _RecordingHeap()
                with monkeypatch.context() as patch:
                    ours = self._counting(patch, assignment, scale)
                    reference = self._counting(patch, oracles, scale)
                    patch.setattr(assignment, "heapq", queue)
                    ranked_alone(costs, k, resolve_ties)
                    murty_reference(costs, k, resolve_ties=resolve_ties)
                assert ours["all"] == ours["feasible"]
                # The root, then one solve per unsolved child popped.
                assert ours["all"] == 1 + sum(not entry[-1] for entry in queue.popped)
                # The reference solves the root and every child of every
                # popped node; its feasible solves are the children the
                # eager queue pushed.
                assert ours["all"] <= reference["feasible"]
                fewer_than_reference += ours["all"] < reference["feasible"]
        assert fewer_than_reference > 0


@st.composite
def _bound_cases(draw):
    """Costs whose entries span twelve decades, with forbidden entries, rows
    and columns, and duplicate rows, which tie exactly."""
    n_rows, n_cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = rng.uniform(-10.0, 4.0, size=(n_rows, n_cols))
    costs *= 10.0 ** rng.integers(-6, 7, size=costs.shape)
    costs[rng.random(costs.shape) < draw(st.floats(0.0, 0.8))] = F
    costs[rng.random(n_rows) < 0.15] = F
    costs[:, rng.random(n_cols) < 0.15] = F
    if n_rows > 1 and draw(st.booleans()):
        costs[1:] = costs[rng.integers(0, n_rows, size=n_rows - 1)]
    return costs


class TestLazyChildBound:
    """A child waits in k_best's queue under a bound; once solved it is queued
    again under its exact cost, which is never below the bound, and keeps its
    discovery number, so exact ties leave the queue as if solved at once."""

    @staticmethod
    def check_queue(costs, k, resolve_ties):
        queue = _RecordingHeap()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(assignment, "heapq", queue)
            ranked_alone(costs, k, resolve_ties)
        bounds = {order: bound for bound, order, *_, exact in queue.pushed if not exact}
        solved = [(order, cost) for cost, order, *_, exact in queue.pushed if exact]
        assert len({order for order, _ in solved}) == len(solved)
        for order, cost in solved:
            assert order in bounds
            assert bounds[order] <= cost
        return len(solved)

    @settings(max_examples=400, deadline=None)
    @given(_bound_cases(), st.integers(1, 30), st.booleans())
    def test_bound_is_at_most_the_exact_cost(self, costs, k, resolve_ties):
        self.check_queue(costs, k, resolve_ties)

    def test_bound_on_seeded_mixed_scales(self):
        rng = np.random.default_rng(31)
        solved = 0
        for _ in range(300):
            costs = rng.uniform(-10.0, 4.0, size=rng.integers(2, 8, size=2))
            costs *= 10.0 ** rng.integers(-6, 7, size=costs.shape)
            costs[rng.random(costs.shape) < 0.3] = F
            for resolve_ties in (True, False):
                solved += self.check_queue(costs, int(rng.integers(2, 31)), resolve_ties)
        assert solved > 1000


class TestRankingAgainstDp:
    """Ranking checked by a different algorithm: ``kbest_dp`` knows nothing of
    Murty's partitions, bounds, queue or chunks."""

    def test_dp_matches_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            costs = forbidden_pattern(rng, 6)
            k = int(rng.integers(1, 40))
            every = sorted(total for _, total in enumerate_partial_assignments(costs))
            assert kbest_dp(costs, k) == every[:k]

    def test_every_ranked_problem_of_a_scenario1_run(self, monkeypatch):
        """Every matrix ``update`` ranks on scenario1 at N_h = 50 (truth seed
        2026, run seed 2027): its solutions use each column at most once and
        only admissible entries, each total is its row-order sum from 0.0,
        and the totals are bitwise the DP's k smallest, as many of them."""
        calls = []
        ranked_columns = mbm._ranked_columns

        def recorded(costs, ks, resolve_ties):
            ranked = ranked_columns(costs, ks, resolve_ties)
            calls.append((costs, ks, ranked))
            return ranked

        monkeypatch.setattr(mbm, "_ranked_columns", recorded)
        scenario = generate_truth(builtin_scenario("scenario1"), 2026)
        state, params = mbm.init_empty(), mbm.FilterParams(max_globals=50)
        for k, zs in enumerate(generate_run_measurements(scenario, 2027), start=1):
            state, _ = mbm.step(state, zs, scenario.model_at(k), scenario.birth, params)
        problems = 0
        for costs, ks, (counts, totals, cols) in calls:
            matrix_of = np.repeat(np.arange(len(costs)), counts)
            for g, row_cols, total in zip(matrix_of.tolist(), cols.tolist(), totals.tolist()):
                taken = [(r, c) for r, c in enumerate(row_cols) if c >= 0]
                assert len({c for _, c in taken}) == len(taken)
                entries = [costs[g, r, c] for r, c in taken]
                assert all(entry < F for entry in entries)
                summed = 0.0
                for entry in entries:
                    summed += float(entry)
                assert summed.hex() == total.hex()
            ends = np.cumsum(counts).tolist()
            for matrix, k, start, end in zip(costs, ks, [0] + ends, ends):
                ranked = sorted(totals[start:end].tolist())
                assert [t.hex() for t in ranked] == [t.hex() for t in kbest_dp(matrix, k)]
            problems += len(costs)
        assert problems == 3_792


def test_assignment_pairs_sorted():
    a = Assignment({2: 1, 0: 3}, -1.0)
    assert a.pairs() == ((0, 3), (2, 1))
