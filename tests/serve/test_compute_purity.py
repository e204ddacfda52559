"""The serve path computes purely, on the daemon's compute thread.

``tests/core/test_compute_purity.py`` holds every registered compute
to reading no clock and drawing from no unseeded RNG. Here the same
stubs are in place while a :class:`RankingService` wired as
``run_serve`` wires it — every computation handed to the
:class:`ComputeThread` on the test's thread, queries sent from a client
thread — answers every metric's ``rank`` (a miss, then a hit) and
``report`` and ``case_study`` for every home country of the ``small``
world. Every body must equal an unpatched service's.
"""

import threading

from repro.serve import ArtifactStore, RankingService
from repro.serve.service import ComputeThread
from tests.core.test_compute_purity import forbid_impurities, run, units

JOIN_S = 60


def queries(result):
    """(method, args) for every metric's rank twice, then every home
    country's report and case study."""
    asked = []
    for spec, country in units(result):
        asked += [("rank", (spec.name, country))] * 2
    for country in result.countries_with_national_view(min_vps=1):
        asked += [("report", (country,)), ("case_study", (country,))]
    return asked


def on_compute_thread(result, asked):
    """Each query's body from a service whose computations run on this
    thread, asked from a client thread; also the idents of the threads
    that computed a ranking."""
    compute = ComputeThread()
    service = RankingService(result, ArtifactStore("key-purity"), compute=compute)
    ranked_on = set()
    ranking = result.ranking

    def recorded(*args, **kwargs):
        ranked_on.add(threading.get_ident())
        return ranking(*args, **kwargs)

    result.ranking = recorded
    bodies, errors = [], []

    def client():
        try:
            for method, args in asked:
                bodies.append(getattr(service, method)(*args))
        except BaseException as error:  # repro: noqa[R006] — collected and re-asserted on the test's thread; a raise here would vanish with the client thread
            errors.append(error)
        finally:
            compute.stop()

    thread = threading.Thread(target=client)
    thread.start()
    try:
        compute.run()
    finally:
        compute.close()
        thread.join(timeout=JOIN_S)
    assert not thread.is_alive()
    assert not errors
    return bodies, ranked_on


def test_serve_path_is_pure(monkeypatch):
    unpatched = run()
    asked = queries(unpatched)
    service = RankingService(unpatched, ArtifactStore("key-unpatched"))
    reference = [getattr(service, method)(*args) for method, args in asked]

    calls = []
    with monkeypatch.context() as patch:
        forbid_impurities(patch, calls)
        bodies, ranked_on = on_compute_thread(run(), asked)

    assert calls == []
    assert ranked_on == {threading.get_ident()}
    assert [body["source"] for body in bodies[:2]] == ["computed", "store"]
    assert bodies == reference
