"""The array-backed VM against its tuple-keyed oracle
(``tests/vm_oracle.py``).

Random create / access / destroy sequences, with and without the kswapd
reclaimer, run over small frame pools through both.  An ``access`` runs
to completion; a run of ``spawn`` ops starts that many processes that
fault at once, so the same page can be in flight twice and more faults
can be in flight than frames are free.  Both VMs must issue the same
disk requests at the same instants, count the same ``VMStats``,
snapshot to the same tree, and a snapshot restored into a fresh VM must
carry on exactly as the oracle restored from it does.
"""

from hypothesis import given, settings, strategies as st

from repro.config import LayoutConfig
from repro.kernel.vm import VirtualMemory
from repro.sim import Simulator
from tests.conftest import drive
from tests.vm_oracle import TupleKeyedVM

#: a swap region of 64 slots: enough for every drawn sequence
LAYOUT = LayoutConfig(swap_sectors=64 * 8)
PAGES = 12


class RecordingDriver:
    """Stands in for the IDE driver: logs each request, completes it
    after a fixed delay so faults and kswapd's write-backs interleave."""

    def __init__(self, sim):
        self.sim = sim
        self.requests = []

    def read_sectors(self, sector, nsectors, origin=None):
        return self._log(sector, nsectors, False, origin)

    def write_sectors(self, sector, nsectors, origin=None):
        return self._log(sector, nsectors, True, origin)

    def _log(self, sector, nsectors, write, origin):
        self.requests.append((self.sim.now.hex(), sector, nsectors, write,
                              origin))
        return self.sim.timeout(0.01)


class Rig:
    """One VM class on its own simulator and recording driver."""

    def __init__(self, vm_class, frames, reclaimer, state=None):
        self.sim = Simulator()
        self.driver = RecordingDriver(self.sim)
        self.vm = vm_class(self.driver, frames_total=frames, page_kb=4,
                           layout=LAYOUT)
        if state is not None:
            self.vm.restore_state(state)
        if reclaimer:
            self.vm.attach_reclaimer(self.sim)
        self.spaces = {}
        #: rss of each space right after it was destroyed
        self.exits = []

    def apply(self, op) -> None:
        kind, who, page, write = op
        if kind != "spawn":
            self.settle()
        name = f"app{who}"
        space = self.spaces.get(name)
        if kind == "create":
            if space is None:
                space = self.vm.create_space(name)
                # the low pages are file-backed: they demand-load
                for p in range(0, PAGES, 3):
                    space.map_file_page(p, 10_000 + 8 * (who * PAGES + p))
                self.spaces[name] = space
        elif space is None:
            return
        elif kind == "destroy":
            self.vm.destroy_space(space)
            self.exits.append(space.rss)
            del self.spaces[name]
        elif kind == "spawn":
            self.sim.process(self.vm.access(space, page, write=write))
        else:
            drive(self.sim, self.vm.access(space, page, write=write))

    def settle(self) -> None:
        """Let every spawned access finish."""
        self.sim.run()

    def observed(self) -> tuple:
        vm = self.vm
        return (self.driver.requests, vars(vm.stats),
                {name: space.rss for name, space in self.spaces.items()},
                self.exits, vm.frames_used, vm.snapshot_state())


#: spawned faults aim at the file-backed pages: their demand loads and
#: swap-ins keep a fault in flight while the next ones start
SPAWN_PAGES = st.sampled_from(range(0, PAGES, 3))
OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["create", "access", "access", "access",
                                   "destroy"]),
                  st.integers(0, 2), st.integers(0, PAGES - 1),
                  st.booleans()),
        st.tuples(st.just("spawn"), st.integers(0, 2), SPAWN_PAGES,
                  st.booleans())),
    max_size=60)


@settings(max_examples=150, deadline=None)
@given(frames=st.integers(1, 8), reclaimer=st.booleans(), ops=OPS,
       tail=OPS)
def test_array_backed_vm_matches_the_tuple_keyed_oracle(frames, reclaimer,
                                                        ops, tail):
    new = Rig(VirtualMemory, frames, reclaimer)
    old = Rig(TupleKeyedVM, frames, reclaimer)
    for op in ops:
        new.apply(op)
        old.apply(op)
        assert new.observed() == old.observed()
    new.settle()
    old.settle()
    assert new.observed() == old.observed()
    state = new.vm.snapshot_state()

    # restore round-trip: a fresh int-keyed VM holds the same state ...
    restored = Rig(VirtualMemory, frames, False, state=state)
    assert restored.vm.snapshot_state() == state
    for sp in state["spaces"]:
        space = restored.vm.space_by_name(sp["name"])
        assert space.rss == len(sp["resident"])
        restored.spaces[sp["name"]] = space
    # ... and carries on exactly as the oracle restored from it
    oracle = Rig(TupleKeyedVM, frames, False, state=state)
    oracle.spaces = {sp["name"]: oracle.vm.space_by_name(sp["name"])
                     for sp in state["spaces"]}
    for op in tail:
        restored.apply(op)
        oracle.apply(op)
    restored.settle()
    oracle.settle()
    assert restored.observed() == oracle.observed()


def run_both(frames, ops):
    """Apply ``ops`` to both VMs, settle, and return the new VM's rig."""
    new = Rig(VirtualMemory, frames, False)
    old = Rig(TupleKeyedVM, frames, False)
    for op in ops:
        new.apply(op)
        old.apply(op)
    new.settle()
    old.settle()
    assert new.observed() == old.observed()
    return new


def test_two_faults_of_one_page_make_it_resident_once():
    # pages 3 and 6 are file-backed, so all three faults wait on demand
    # loads; page 3's second fault lands last, keeps the page's place
    # and takes its dirty flag
    rig = run_both(4, [("create", 0, 0, False), ("access", 0, 1, False),
                       ("spawn", 0, 3, True), ("spawn", 0, 6, False),
                       ("spawn", 0, 3, False)])
    assert rig.vm.frames_used == rig.spaces["app0"].rss == 3
    assert rig.vm.stats.faults == 4 and rig.vm.stats.demand_loads == 3
    assert rig.vm.snapshot_state()["frames"] == [["app0", 1, False],
                                                 ["app0", 3, False],
                                                 ["app0", 6, False]]


def test_more_faults_in_flight_than_free_frames():
    # two frames and three demand loads at once: all three land ...
    ops = [("create", 0, 0, False), ("create", 1, 0, False),
           ("spawn", 0, 3, True), ("spawn", 1, 3, True),
           ("spawn", 0, 6, False)]
    rig = run_both(2, ops)
    assert rig.vm.frames_used == 3
    assert rig.vm.stats.direct_reclaims == 0
    # ... and the next fault evicts down to one free frame, least
    # recently used first, swapping out the two dirty pages
    rig = run_both(2, ops + [("access", 1, 9, False)])
    assert rig.vm.frames_used == 2
    assert (rig.vm.stats.evictions, rig.vm.stats.swap_outs) == (2, 2)
    assert rig.vm.snapshot_state()["frames"] == [["app0", 6, False],
                                                 ["app1", 9, False]]
