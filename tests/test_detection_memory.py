"""Computing V(Sigma, D) from scratch holds one rule's violating tids at a time.

``detect_violations`` checks and marks one fused rule group per
``store.check`` call, and an incVer ``build()`` reads V0 off its indexes
one CFD at a time, so the memory either needs beyond its result does not
grow with |Sigma|.  A batVer wave on rows holds every rule's ``check``
result at once, but each as a tid list, and decodes them to sets one at
a time.  The transient is the ``tracemalloc`` peak of the call minus
what its result keeps; going from one rule to ten may add at most two
tid sets of |D| entries.  Holding every rule's set at once (ten of
them, each about |D| on this saturated data) adds several times that.
"""

import sys
import tracemalloc

import pytest

import repro
import repro.vertical.incver as incver_module
from repro.core.detector import CentralizedDetector, detect_violations
from repro.core.storage import storage_backend_names
from repro.runtime.scheduler import SiteScheduler

N_TUPLES = 20_000
SEED = 7
#: The growth allowed from |Sigma| = 1 to |Sigma| = 10: two full tid sets.
ALLOWED = 2 * sys.getsizeof(set(range(N_TUPLES)))
BACKENDS = storage_backend_names()


@pytest.fixture(scope="module")
def inputs():
    generator = repro.TPCHGenerator(seed=SEED)
    relation = generator.relation(N_TUPLES)
    cfds = list(repro.generate_cfds(generator.fd_specs(), 10, seed=SEED))
    return generator, relation, cfds


def transient(call, *args, **kwargs):
    """``call``'s result and its tracemalloc peak minus what the result keeps."""
    was_tracing = tracemalloc.is_tracing()
    if was_tracing:
        tracemalloc.reset_peak()
    else:
        tracemalloc.start()
    try:
        result = call(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak - current


def test_detect_transient_does_not_grow_with_rules(inputs):
    _generator, relation, cfds = inputs
    one, one_bytes = transient(detect_violations, cfds[:1], relation)
    ten, ten_bytes = transient(detect_violations, cfds, relation)
    assert len(one) and len(ten) == N_TUPLES
    assert ten_bytes - one_bytes <= ALLOWED, (one_bytes, ten_bytes, ALLOWED)


def test_incver_v0_transient_does_not_grow_with_rules(inputs, monkeypatch):
    generator, relation, cfds = inputs
    read_off = incver_module.violations_from_index
    measured: list[int] = []

    def measuring(*args, **kwargs):
        violations, used = transient(read_off, *args, **kwargs)
        measured.append(used)
        return violations

    monkeypatch.setattr(incver_module, "violations_from_index", measuring)
    sessions = []
    for rules in (cfds[:1], cfds):
        builder = repro.session(relation).partition(generator.vertical_partitioner(8))
        sessions.append(builder.rules(rules).strategy("incVer").storage("rows").build())
    assert len(measured) == 2
    one_bytes, ten_bytes = measured
    assert ten_bytes - one_bytes <= ALLOWED, (one_bytes, ten_bytes, ALLOWED)
    for rules, built in zip((cfds[:1], cfds), sessions):
        assert built.violations == detect_violations(rules, relation)


def test_batver_wave_transient_does_not_grow_with_rules(inputs):
    generator, relation, cfds = inputs
    batch = repro.generate_updates(relation, generator, 10, seed=SEED)
    after = relation.copy()
    batch.apply_in_place(after)
    measured = []
    for rules in (cfds[:1], cfds):
        builder = repro.session(relation).partition(generator.vertical_partitioner(8))
        session = builder.rules(rules).strategy("batVer").storage("rows").build()
        _delta, used = transient(session.apply, batch)
        measured.append(used)
        assert session.violations == detect_violations(rules, after)
        session.close()
    one_bytes, ten_bytes = measured
    assert ten_bytes - one_bytes <= ALLOWED, (one_bytes, ten_bytes, ALLOWED)


@pytest.fixture(scope="module")
def hosted(inputs):
    """The relation on each backend, built once per module."""
    _generator, relation, _cfds = inputs
    return {backend: relation.with_storage(backend) for backend in BACKENDS}


@pytest.mark.parametrize("backend", BACKENDS)
def test_bathor_wave_transient_does_not_grow_with_rules(inputs, hosted, backend):
    """batHor marks one general CFD's tids before it fetches the next
    CFD's: ten rules may add at most one tid set over one."""
    generator, relation, cfds = inputs
    batch = repro.generate_updates(relation, generator, 10, seed=SEED)
    after = relation.copy()
    batch.apply_in_place(after)
    measured = []
    for rules in (cfds[:1], cfds):
        builder = repro.session(hosted[backend]).partition(generator.horizontal_partitioner(8))
        session = builder.rules(rules).strategy("batHor").storage(backend).build()
        _delta, used = transient(session.apply, batch)
        measured.append(used)
        assert session.violations == detect_violations(rules, after)
        session.close()
    one_bytes, ten_bytes = measured
    assert ten_bytes - one_bytes <= ALLOWED / 2, (one_bytes, ten_bytes, ALLOWED / 2)


@pytest.mark.parametrize("backend", BACKENDS)
def test_centralized_scheduler_transient_tracks_plain_detect(inputs, hosted, backend):
    """With a scheduler, ``detect`` runs one rule group per round, so its
    growth from one rule to ten stays within ``ALLOWED`` of the plain
    ``detect``'s."""
    _generator, _relation, cfds = inputs
    relation = hosted[backend]
    growth = {}
    for scheduler in (None, SiteScheduler()):
        (one, one_bytes), (ten, ten_bytes) = (
            transient(CentralizedDetector(rules, scheduler=scheduler).detect, relation)
            for rules in (cfds[:1], cfds)
        )
        assert len(one) and len(ten) == N_TUPLES
        growth[scheduler is None] = ten_bytes - one_bytes
    assert growth[False] - growth[True] <= ALLOWED, (growth, ALLOWED)
