"""Seed-propagation audit for the adversarial subsystem.

Reproducibility is a *verdict precondition*: a stability counterexample
that cannot be replayed from its seed is worthless.  Two guarantees are
audited here:

* **behavioural** — two ``run_adversary`` calls with the same seed
  produce byte-identical digests (schedule digest + rendered verdict),
  and different seeds actually explore different schedules;
* **structural** — every random draw in ``repro.faults`` flows from a
  :class:`FaultPlan`'s generator.  The only ``default_rng`` call site in
  the package is ``plan.py``; nothing consults global NumPy/stdlib
  randomness, wall clocks, or PYTHONHASHSEED-dependent iteration.
"""

import pathlib

import pytest

from repro.core.path import Path
from repro.experiments import run_adversary
from repro.experiments.adversary_exp import run_adversary_matrix

FAULTS_DIR = (pathlib.Path(__file__).resolve().parents[2]
              / "src" / "repro" / "faults")

RUN_KW = dict(strategy="queue_storm", scheduler="edf", members=2,
              duration_us=30_000.0, horizon_us=20_000.0)


class TestDigestDeterminism:

    def test_same_seed_same_digest(self):
        first = run_adversary(seed=7, **RUN_KW)
        second = run_adversary(seed=7, **RUN_KW)
        assert first.digest == second.digest
        assert first.injected == second.injected
        assert first.delivered == second.delivered
        assert first.max_queue_depth == second.max_queue_depth

    def test_different_seed_different_digest(self):
        digests = {run_adversary(seed=seed, **RUN_KW).digest
                   for seed in (1, 2, 3)}
        assert len(digests) == 3

    @pytest.mark.parametrize("strategy", ["deadline_cliff", "group_chaser"])
    def test_determinism_holds_per_strategy(self, strategy):
        kwargs = dict(RUN_KW, strategy=strategy)
        assert (run_adversary(seed=11, **kwargs).digest
                == run_adversary(seed=11, **kwargs).digest)


class TestSpecializationInvariance:
    """The execution tier is not allowed to be an input: the adversary
    matrix must produce byte-identical digests whether the paths run the
    compiled chains or exec-generated fused functions (DESIGN.md §15).
    A digest drift here would mean the specialized tier changed a drop,
    a queue depth, or a delivery order somewhere under worst-case load —
    exactly the regression the differential harness exists to catch."""

    MATRIX_KW = dict(members=2, duration_us=30_000.0,
                     horizon_us=20_000.0)

    def _matrix_digests(self, monkeypatch, enabled):
        monkeypatch.setattr(Path, "specialize", enabled)
        results = run_adversary_matrix(
            strategies=("queue_storm", "deadline_cliff"),
            schedulers=("edf", "stride"), seed=7, **self.MATRIX_KW)
        return [(r.strategy, r.scheduler, r.digest, r.injected,
                 r.delivered, r.max_queue_depth) for r in results]

    def test_matrix_digests_identical_with_specialization_on_and_off(
            self, monkeypatch):
        assert self._matrix_digests(monkeypatch, enabled=False) \
            == self._matrix_digests(monkeypatch, enabled=True)

    def test_single_run_digest_unaffected_by_specialization(
            self, monkeypatch):
        monkeypatch.setattr(Path, "specialize", False)
        off = run_adversary(seed=7, **RUN_KW)
        monkeypatch.setattr(Path, "specialize", True)
        on = run_adversary(seed=7, **RUN_KW)
        assert on.digest == off.digest
        assert (on.injected, on.delivered, on.max_queue_depth) \
            == (off.injected, off.delivered, off.max_queue_depth)


class TestSourceAudit:
    """Grep-level invariants over ``src/repro/faults``."""

    def _sources(self):
        return sorted(FAULTS_DIR.glob("*.py"))

    def test_package_is_where_we_think(self):
        names = {path.name for path in self._sources()}
        assert "adversary.py" in names and "plan.py" in names

    def test_default_rng_only_in_plan(self):
        offenders = [path.name for path in self._sources()
                     if "default_rng" in path.read_text()
                     and path.name != "plan.py"]
        assert offenders == []

    def test_no_global_randomness_or_clocks(self):
        banned = ("np.random.seed", "random.random(", "random.randint(",
                  "time.time(", "time.monotonic(", "datetime.now(")
        for path in self._sources():
            text = path.read_text()
            hits = [token for token in banned if token in text]
            assert not hits, f"{path.name} uses {hits}"

    def test_adversary_takes_rng_never_makes_one(self):
        text = (FAULTS_DIR / "adversary.py").read_text()
        assert "default_rng" not in text
        assert "import random" not in text
