"""The int-keyed VM against its tuple-keyed oracle (``tests/vm_oracle.py``).

Random create / access / destroy sequences, with and without the kswapd
reclaimer, run over small frame pools through both.  They must issue
the same disk requests at the same instants, count the same
``VMStats``, snapshot to the same tree, and a snapshot restored into a
fresh VM must carry on exactly as the oracle restored from it does.
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
        else:
            drive(self.sim, self.vm.access(space, page, write=write))

    def observed(self) -> tuple:
        vm = self.vm
        return (self.driver.requests, vars(vm.stats),
                {name: space.rss for name, space in self.spaces.items()},
                self.exits, vm.frames_used, vm.snapshot_state())


OPS = st.lists(
    st.tuples(st.sampled_from(["create", "access", "access", "access",
                               "access", "destroy"]),
              st.integers(0, 2), st.integers(0, PAGES - 1), st.booleans()),
    max_size=60)


@settings(max_examples=150, deadline=None)
@given(frames=st.integers(1, 8), reclaimer=st.booleans(), ops=OPS,
       tail=OPS)
def test_int_keyed_vm_matches_the_tuple_keyed_oracle(frames, reclaimer, ops,
                                                     tail):
    new = Rig(VirtualMemory, frames, reclaimer)
    old = Rig(TupleKeyedVM, frames, reclaimer)
    for op in ops:
        new.apply(op)
        old.apply(op)
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
    assert restored.observed() == oracle.observed()
