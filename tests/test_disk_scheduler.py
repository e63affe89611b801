"""Unit and property tests for request-queue disciplines."""

from hypothesis import given, strategies as st

from repro.disk import CLookScheduler, FIFOScheduler, IORequest, SSTFScheduler


def _req(sector):
    return IORequest(sector=sector, nsectors=2, is_write=False)


def _drain(sched, head=0):
    order = []
    while len(sched):
        r = sched.next(head)
        order.append(r.sector)
        head = r.sector
    return order


def test_fifo_preserves_arrival_order():
    s = FIFOScheduler()
    for sector in (500, 10, 300):
        s.add(_req(sector))
    assert _drain(s) == [500, 10, 300]


def test_sstf_picks_nearest():
    s = SSTFScheduler()
    for sector in (1000, 90, 110):
        s.add(_req(sector))
    # head at 100: nearest is 90 (d=10), then 110 (d=20), then 1000
    order = []
    head = 100
    while len(s):
        r = s.next(head)
        order.append(r.sector)
        head = r.sector
    assert order == [90, 110, 1000]


def test_clook_sweeps_upward_then_wraps():
    s = CLookScheduler()
    for sector in (50, 500, 200, 900):
        s.add(_req(sector))
    assert _drain(s, head=100) == [200, 500, 900, 50]


def test_clook_equal_to_head_served_in_sweep():
    s = CLookScheduler()
    s.add(_req(100))
    s.add(_req(300))
    assert _drain(s, head=100) == [100, 300]


def test_empty_scheduler_returns_none():
    for s in (FIFOScheduler(), SSTFScheduler(), CLookScheduler()):
        assert s.next(0) is None


def test_pending_lists_queue_without_removal():
    s = CLookScheduler()
    s.add(_req(5))
    s.add(_req(7))
    assert sorted(r.sector for r in s.pending()) == [5, 7]
    assert len(s) == 2


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1,
                max_size=30),
       st.integers(min_value=0, max_value=10**6))
def test_all_disciplines_serve_every_request(sectors, head):
    for make in (FIFOScheduler, SSTFScheduler, CLookScheduler):
        s = make()
        for sec in sectors:
            s.add(_req(sec))
        assert sorted(_drain(s, head)) == sorted(sectors)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=2,
                max_size=20))
def test_clook_single_sweep_is_sorted_above_head(sectors):
    s = CLookScheduler()
    for sec in sectors:
        s.add(_req(sec))
    served = _drain(s, head=0)
    # Head starts at 0, so one upward sweep serves everything sorted.
    assert served == sorted(sectors)


class _LinearCLook:
    """Reference: the linear-scan C-LOOK pick the bisected one replaced
    (arrival-ordered queue; ``min`` keeps the earliest of equal sectors)."""

    def __init__(self):
        self._queue = []

    def add(self, request):
        self._queue.append(request)

    def next(self, head_sector):
        if not self._queue:
            return None
        ahead = [i for i, r in enumerate(self._queue)
                 if r.sector >= head_sector]
        if ahead:
            best = min(ahead, key=lambda i: self._queue[i].sector)
        else:
            best = min(range(len(self._queue)),
                       key=lambda i: self._queue[i].sector)
        return self._queue.pop(best)


# a narrow sector range forces duplicate sectors; heads reach past the
# highest sector, so picks wrap
_clook_ops = st.lists(
    st.one_of(st.tuples(st.just("add"), st.integers(0, 40)),
              st.tuples(st.just("next"), st.integers(0, 50))),
    max_size=80)


@given(_clook_ops)
def test_clook_bisected_pick_matches_linear_scan(ops):
    s, ref = CLookScheduler(), _LinearCLook()
    for op, value in ops:
        if op == "add":
            request = _req(value)
            s.add(request)
            ref.add(request)
        else:
            assert s.next(value) is ref.next(value)
        assert len(s) == len(ref._queue)
        assert [id(r) for r in s.pending()] == [id(r) for r in ref._queue]

