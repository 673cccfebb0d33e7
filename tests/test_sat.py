import random

from bafsynth.sat import _RESTART_BASE, _VAR_DECAY, SatResult, Solver, _luby

from . import oracles


def _random_cnf(rng, max_vars=12, max_clauses=40):
    n = rng.randint(1, max_vars)
    k = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(k):
        width = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return n, clauses


def test_direct_contradiction():
    s = Solver()
    s.add_clause((1,))
    s.add_clause((-1,))
    assert not s.solve().satisfiable


def test_unit_propagation_model():
    s = Solver()
    s.add_clause((1, 2))
    s.add_clause((-1,))
    res = s.solve()
    assert res.satisfiable
    assert res.model == {1: False, 2: True}


def test_empty_clause_unsat():
    s = Solver()
    s.add_clause(())
    assert not s.solve().satisfiable


def test_assumptions():
    s = Solver()
    s.add_clause((1, 2))
    assert not s.solve([-1, -2]).satisfiable
    res = s.solve([-1])
    assert res.satisfiable and res.model[2] is True
    # the failed assumption call must not poison later calls
    assert s.solve().satisfiable


def test_unsat_is_permanent_without_assumptions():
    s = Solver()
    s.add_clause((1,))
    s.add_clause((-1, 2))
    s.add_clause((-2,))
    assert not s.solve().satisfiable
    s.add_clause((3,))
    assert not s.solve().satisfiable


def test_default_polarity_is_false():
    s = Solver()
    s.ensure_var(3)
    s.add_clause((1, 2, 3))
    res = s.solve()
    assert res.satisfiable
    assert sum(res.model.values()) == 1  # a single decision flip satisfies it


def test_incremental_clause_against_root_assignment():
    # a clause falsified by earlier root-level propagation must take effect
    s = Solver()
    s.add_clause((1,))
    s.add_clause((-1, -2))
    assert s.solve().satisfiable
    s.add_clause((2,))
    assert not s.solve().satisfiable


def test_oracle_equivalence_random():
    rng = random.Random(99)
    for _ in range(1000):
        n, clauses = _random_cnf(rng)
        expected = oracles.cnf_model(clauses, range(1, n + 1)) is not None
        s = Solver()
        s.ensure_var(n)
        for c in clauses:
            s.add_clause(c)
        res = s.solve()
        assert res.satisfiable == expected
        if res.satisfiable:
            assert all(oracles.clause_sat(c, res.model) for c in clauses)


def test_incremental_oracle_equivalence():
    # grow one solver clause by clause; status must match brute force at
    # every step, and flip to unsatisfiable exactly once
    rng = random.Random(5)
    for _ in range(50):
        n, clauses = _random_cnf(rng, max_vars=8, max_clauses=24)
        s = Solver()
        s.ensure_var(n)
        so_far = []
        was_unsat = False
        for c in clauses:
            s.add_clause(c)
            so_far.append(c)
            expected = oracles.cnf_model(so_far, range(1, n + 1)) is not None
            got = s.solve().satisfiable
            assert got == expected
            if was_unsat:
                assert not got
            was_unsat = was_unsat or not got


def test_assumption_oracle_equivalence():
    rng = random.Random(21)
    for _ in range(300):
        n, clauses = _random_cnf(rng, max_vars=8, max_clauses=20)
        assumed = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, n + 1), rng.randint(0, min(3, n)))
        ]
        expected = (
            oracles.cnf_model(clauses + [[a] for a in assumed], range(1, n + 1))
            is not None
        )
        s = Solver()
        s.ensure_var(n)
        for c in clauses:
            s.add_clause(c)
        assert s.solve(assumed).satisfiable == expected


def test_interleaved_additions_and_assumptions():
    rng = random.Random(137)
    for _ in range(60):
        n = rng.randint(2, 8)
        s = Solver()
        s.ensure_var(n)
        so_far = []
        for _ in range(12):
            if rng.random() < 0.6:
                width = rng.randint(1, min(3, n))
                c = [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), width)
                ]
                s.add_clause(c)
                so_far.append(c)
            assumed = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(0, 2))
            ]
            expected = (
                oracles.cnf_model(so_far + [[a] for a in assumed], range(1, n + 1))
                is not None
            )
            assert s.solve(assumed).satisfiable == expected


def test_determinism():
    rng = random.Random(31)
    for _ in range(50):
        n, clauses = _random_cnf(rng)
        models = []
        for _ in range(2):
            s = Solver()
            s.ensure_var(n)
            for c in clauses:
                s.add_clause(c)
            models.append(s.solve().model)
        assert models[0] == models[1]


def test_luby_sequence():
    got = [_luby(i) for i in range(1, 16)]
    assert got == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def _pigeonhole(holes):
    pigeons = holes + 1

    def v(i, j):
        return i * holes + j + 1

    clauses = [[v(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-v(i1, j), -v(i2, j)])
    return pigeons * holes, clauses


def test_pigeonhole_unsat_exercises_restarts():
    # enough conflicts to go through several restart intervals
    n, clauses = _pigeonhole(6)
    s = Solver()
    s.ensure_var(n)
    for c in clauses:
        s.add_clause(c)
    assert not s.solve().satisfiable


def test_pigeonhole_equal_fits():
    holes = 5
    n = holes * holes

    def v(i, j):
        return i * holes + j + 1

    s = Solver()
    s.ensure_var(n)
    for i in range(holes):
        s.add_clause([v(i, j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(holes):
            for i2 in range(i1 + 1, holes):
                s.add_clause([-v(i1, j), -v(i2, j)])
    assert s.solve().satisfiable


class _ScanCheckedSolver(Solver):
    """Checks every heap pick against a linear scan over the unassigned
    variables that occur in a clause: highest activity, smallest id on ties."""

    picks = 0

    def _pick_branch_var(self):
        occurring = sorted({abs(l) for c in self.problem_lits for l in c})
        expected, best = None, -1.0
        for v in occurring:
            if self.assign[v] == 0 and self.activity[v] > best:
                expected, best = v, self.activity[v]
        got = super()._pick_branch_var()
        assert got == expected
        self.picks += 1
        return got


def _random_3cnf(rng, n):
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        for _ in range(rng.randint(3 * n, 9 * n // 2))
    ]


def test_heap_picks_what_the_scan_picks():
    rng = random.Random(2003)
    picks = conflicts = 0
    for _ in range(40):
        n = rng.randint(10, 40)
        s = _ScanCheckedSolver()
        s.ensure_var(n + rng.randint(0, 5))  # some variables in no clause
        for c in _random_3cnf(rng, n):
            s.add_clause(c)
        s.solve()
        for _ in range(4):
            assumed = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(1, 4))
            ]
            s.solve(assumed)
        picks += s.picks
        conflicts += s.conflicts
    assert picks > 1000 and conflicts > 100  # the heap moved under bumps


def test_heap_rebuild_after_activity_rescale():
    n, clauses = _pigeonhole(5)
    s = _ScanCheckedSolver()
    s.ensure_var(n)
    for c in clauses:
        s.add_clause(c)
    s.var_inc = 1e99  # the first bumps cross the rescale threshold
    assert not s.solve().satisfiable
    assert s.var_inc < 1e50  # rescaled at least once
    assert s.picks > 0


def test_variables_in_no_clause_are_not_decided():
    s = Solver()
    s.ensure_var(5000)
    s.add_clause((1, 2))
    res = s.solve()
    assert res.satisfiable
    assert s.decisions <= 2
    assert not any(res.model[v] for v in range(3, 5001))


def test_spare_variables_change_no_model_and_no_conflict():
    rng = random.Random(808)
    for _ in range(60):
        n = rng.randint(5, 25)
        clauses = _random_3cnf(rng, n)
        runs = []
        for size in (n, n + 300):
            s = Solver()
            s.ensure_var(size)
            for c in clauses:
                s.add_clause(c)
            res = s.solve()
            model = {v: res.model[v] for v in range(1, n + 1)} if res.satisfiable else None
            runs.append((res.satisfiable, model, s.conflicts, s.decisions))
        assert runs[0] == runs[1]


def test_heap_orders_rescale_ties_by_id():
    # variables 6..8 get tiny activities that the rescale flushes to zero,
    # where they tie with 2..5 and must come after them again
    s = _ScanCheckedSolver()
    for v in range(1, 9):
        s.add_clause((v, 9))
    s.var_inc = 1e-300
    for v in (8, 7, 6):
        s._bump(v)
    s.var_inc = 2e100
    s._bump(1)
    assert s.activity[1] == 2.0 and s.activity[8] == 0.0
    res = s.solve()
    assert res.satisfiable and s.picks == 9  # eight decisions, then none left


def test_heap_stays_compact_over_assumption_solves():
    # lazy deletion leaves old entries behind on every backjump; the
    # compaction keeps the heap within a constant factor of the variables
    rng = random.Random(2003)
    for _ in range(40):
        n = rng.randint(10, 40)
        s = Solver()
        s.ensure_var(n)
        for c in _random_3cnf(rng, n):
            s.add_clause(c)
        for _ in range(30):
            assumed = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(1, 4))
            ]
            s.solve(assumed)
            assert len(s.heap) <= 3 * s.nvars


class _RescanSolver(Solver):
    """The assumption loop as it was before one pseudo-level per assumption:
    before every decision, rescan the assumptions for the first one not yet
    true and decide it; assumptions already true get no level."""

    def solve(self, assumptions=()):
        if self.unsat_at_root:
            return SatResult(False)
        self._cancel_until(0)
        for a in assumptions:
            self.ensure_var(abs(a))
        for u in self.root_units:
            val = self._value(u)
            if val is False:
                self.unsat_at_root = True
                return SatResult(False)
            if val is None:
                self._enqueue(u, None)
        if self._propagate() is not None:
            self.unsat_at_root = True
            return SatResult(False)
        conflicts = 0
        restart_idx = 1
        threshold = _RESTART_BASE * _luby(restart_idx)
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self.trail_lim:
                    self.unsat_at_root = True
                    return SatResult(False)
                conflicts += 1
                self.conflicts += 1
                learned, bt = self._analyze(confl)
                self._cancel_until(bt)
                if len(learned) == 1:
                    self.root_units.append(learned[0])
                    self._enqueue(learned[0], None)
                else:
                    self._watch(learned)
                    self._enqueue(learned[0], learned)
                self.var_inc /= _VAR_DECAY
                continue
            if conflicts >= threshold:
                conflicts = 0
                restart_idx += 1
                threshold = _RESTART_BASE * _luby(restart_idx)
                self._cancel_until(0)
                continue
            progressed = False
            for a in assumptions:
                val = self._value(a)
                if val is False:
                    return SatResult(False)
                if val is None:
                    self.trail_lim.append(len(self.trail))
                    self._enqueue(a, None)
                    progressed = True
                    break
            if progressed:
                continue
            v = self._pick_branch_var()
            if v is None:
                model = {u: self.assign[u] > 0 for u in range(1, self.nvars + 1)}
                assert self._model_ok(model, assumptions)
                return SatResult(True, model)
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(-v, None)


def test_assumption_levels_decide_what_the_rescan_decides():
    rng = random.Random(2014)
    sat = unsat = conflicts = 0
    for _ in range(60):
        n = rng.randint(20, 50)
        clauses = _random_3cnf(rng, n)[: rng.randint(3 * n, 4 * n)]
        fixed = rng.randint(1, n)  # a root unit, so some assumptions are fixed
        solvers = (Solver(), _RescanSolver())
        for s in solvers:
            s.ensure_var(n)
            s.add_clause((fixed,))
            for c in clauses:
                s.add_clause(c)
        for _ in range(12):
            assumed = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(1, 5))
            ]
            assumed += rng.choices(assumed, k=rng.randint(0, 2))  # duplicates
            if rng.random() < 0.2:
                assumed.append(-rng.choice(assumed))  # a contradictory pair
            if rng.random() < 0.3:
                assumed.insert(rng.randint(0, len(assumed)), rng.choice((fixed, -fixed)))
            rng.shuffle(assumed)
            got = [
                (r.satisfiable, r.model, s.decisions, s.conflicts)
                for s in solvers
                for r in (s.solve(assumed),)
            ]
            assert got[0] == got[1]
            sat += got[0][0]
            unsat += not got[0][0]
        conflicts += solvers[0].conflicts
    assert sat > 100 and unsat > 100 and conflicts > 1000
