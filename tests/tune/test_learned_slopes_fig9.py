"""Fixed-``S`` vs learned-``S`` on fig9-medium (``pytest -m slow``).

Figure 9's relation (N=2000 medium objects, k=3) answers two slope
traffic families on two engines: the build-time
``SlopeSet.uniform_angles(3)`` and the set :func:`repro.tune.learn_slopes`
learns from a slope log recorded over that family's own traffic. Pages
come from the T1/T2 planner path, whose sweeps Theorems 4.1/4.2 price
by nearest-anchor distance, so every bound below is a page count and
none depends on the machine's speed:

* answers are identical between the engines (a learned ``S`` changes
  cost, never answers);
* on ``skewed`` traffic the learned set cuts total pages by at least
  48 % (measured: 95.5 %);
* on ``uniform`` traffic, the distribution ``uniform_angles`` is built
  for, the learned set costs at most 1.2 × the fixed set's pages
  (measured: 7.3 % fewer).
"""

import pytest

from repro.bench import harness
from repro.core import DualIndexPlanner, SlopeSet
from repro.exec import BatchExecutor
from repro.obs.slopelog import SlopeLog, logging_slopes
from repro.tune import learn_slopes, rebuild_planner
from repro.workloads import skewed_queries, uniform_queries

pytestmark = pytest.mark.slow

QUERIES_PER_FAMILY = 60
#: Minimum skewed-traffic page reduction of the learned set, in percent.
SKEW_MIN_REDUCTION_PCT = 48.0
#: Maximum learned/fixed page ratio on uniform traffic.
UNIFORM_MAX_PAGE_RATIO = 1.2


def _pages_and_answers(planner, queries):
    results = [planner.query(q) for q in queries]
    return sum(r.page_accesses for r in results), [r.ids for r in results]


def _fixed_vs_learned(family: str):
    """``(fixed pages, learned pages)`` after checking the answers match."""
    relation = harness.relation(2000, "medium")
    make = {"skewed": skewed_queries, "uniform": uniform_queries}[family]
    queries = make(relation, QUERIES_PER_FAMILY, seed=harness.SEED)
    fixed = DualIndexPlanner.build(relation, SlopeSet.uniform_angles(3))
    log = SlopeLog(capacity=4096, seed=harness.SEED)
    with logging_slopes(log):
        BatchExecutor(fixed, cache_size=0).execute(queries)
    learned = rebuild_planner(fixed, learn_slopes(log.snapshot(), k=3))
    fixed_pages, fixed_ids = _pages_and_answers(fixed, queries)
    learned_pages, learned_ids = _pages_and_answers(learned, queries)
    assert learned_ids == fixed_ids
    return fixed_pages, learned_pages


def test_learned_slopes_cut_skewed_pages():
    fixed_pages, learned_pages = _fixed_vs_learned("skewed")
    reduction = 100.0 * (1.0 - learned_pages / fixed_pages)
    assert reduction >= SKEW_MIN_REDUCTION_PCT, (fixed_pages, learned_pages)


def test_learned_slopes_do_not_hurt_uniform_traffic():
    fixed_pages, learned_pages = _fixed_vs_learned("uniform")
    assert learned_pages <= UNIFORM_MAX_PAGE_RATIO * fixed_pages, (
        fixed_pages, learned_pages)
