"""Application framework: phases, memory behaviour, and I/O helpers.

An :class:`ESSApplication` runs on one cluster node (optionally talking to
its peers over PVM) and expresses its behaviour through a small vocabulary:

* ``install`` — put the program binary (and any input files) on disk;
  runs *before* tracing starts, as the real codes were installed long
  before the measurements;
* ``load_binary`` — demand-page the program image (4 KB reads against the
  binary's disk blocks, the startup paging the paper observes);
* ``allocate`` / ``compute`` — anonymous memory regions touched during
  timesliced compute, driving the VM (zero-fill, then swap traffic once
  the node's frames are oversubscribed);
* file reads/writes through the node kernel's syscall layer.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.cluster.beowulf import ClusterNode
from repro.kernel import NodeKernel
from repro.kernel.vm import AddressSpace


#: sustained double-precision rate assumed for the 486DX4-100 reference
#: CPU, in Mflop/s.  Calibrated so the derived solo run times land near the
#: paper's figures (PPM ~230 s, N-body ~240 s).
REF_MFLOPS = 2.0


@dataclass
class AppStats:
    """What an application instance did, for tests and reports."""

    started_at: float = 0.0
    finished_at: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    compute_seconds: float = 0.0
    pages_touched: int = 0
    messages_sent: int = 0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


#: AppStats fields carried through a resume token
_STATS_FIELDS = ("started_at", "finished_at", "bytes_read", "bytes_written",
                 "compute_seconds", "pages_touched", "messages_sent")


class ESSApplication:
    """Base class of the workload models.

    An application's behaviour is a sequence of *bodies* — numbered
    generator sections returned by :meth:`bodies` (setup, one per time
    step, epilogue).  The base :meth:`run` drives them under a cursor,
    which is what makes the workloads checkpointable: between bodies the
    app owns no in-flight I/O and holds no queue entries, so a
    :class:`~repro.checkpoint.CheckpointCoordinator` can park it there,
    capture ``(cursor, rng state, regions, handles)`` as a plain resume
    token, and a restored process continues from the same boundary
    bit-identically.  Without a coordinator the driver loop adds no
    events and no draws — byte-for-byte the old monolithic ``run()``.
    """

    #: application name; used for file paths and address-space labels
    name = "app"
    #: size of the program image on disk
    binary_kb = 256

    def __init__(self, node: Union[ClusterNode, NodeKernel],
                 seed: int = 0):
        if isinstance(node, ClusterNode):
            self.kernel: NodeKernel = node.kernel
            self.pvm = node.pvm
            self.node_id = node.node_id
        else:
            self.kernel = node
            self.pvm = None
            self.node_id = node.node_id
        # zlib.crc32, not hash(): string hashing is randomized per
        # process and would make runs irreproducible across invocations
        name_code = zlib.crc32(self.name.encode())
        self.rng = np.random.default_rng(
            np.random.SeedSequence([seed, self.node_id, name_code]))
        self.stats = AppStats()
        self.aspace: Optional[AddressSpace] = None
        self._next_page = 0
        self._binary_pages = 0
        #: bodies completed so far (the checkpoint-safe progress marker)
        self.cursor = 0
        self._coordinator = None
        self._resume_token: Optional[dict] = None
        self._started = False
        self._finished = False

    # -- paths ---------------------------------------------------------------
    @property
    def binary_path(self) -> str:
        return f"/usr/local/bin/{self.name}"

    @property
    def output_dir(self) -> str:
        return f"/home/{self.name}"

    # -- lifecycle -----------------------------------------------------------
    def install(self):
        """Generator: place the binary (and inputs) on disk.

        Run during experiment setup, before tracing starts.  Subclasses
        extend this to create their input files.
        """
        fs = self.kernel.fs
        yield from fs.makedirs("/usr/local/bin")
        yield from fs.makedirs(self.output_dir)
        if not fs.exists(self.binary_path):
            inode = yield from fs.create(self.binary_path, zone="binary")
            yield from fs.truncate_extend(inode, self.binary_kb * 1024)

    def bodies(self) -> list:
        """The run's numbered sections, each a no-arg generator callable.

        Subclasses return ``[setup, step_0 ... step_n, epilogue]``;
        state shared between bodies lives on instance attributes.
        Bodies must be *communication-closed*: any send/recv/barrier
        pairing between family members happens within one body index,
        with sends preceding receives.
        """
        raise NotImplementedError

    def run(self):
        """Generator: the application process (drives :meth:`bodies`)."""
        bodies = self.bodies()
        token = self._resume_token
        coordinator = self._coordinator
        if token is not None and token["finished"]:
            # ran to completion before the checkpoint: nothing to
            # replay, just carry the final statistics forward
            self._apply_stats(token["stats"])
            self._started = self._finished = True
            return self.stats
        if token is not None and token["started"]:
            self._restore_token(token)
            self._started = True
            if coordinator is not None:
                coordinator.started(self)
                # park before the next body; the runner releases every
                # resumed app (in sorted order) once the drain settles
                yield coordinator.hold(self)
        else:
            self._setup_address_space()
            self.stats.started_at = self.kernel.sim.now
            self._started = True
            if coordinator is not None:
                coordinator.started(self)
        try:
            while self.cursor < len(bodies):
                if coordinator is not None \
                        and coordinator.should_hold(self):
                    yield coordinator.hold(self)
                yield from bodies[self.cursor]()
                self.cursor += 1
        finally:
            self.stats.finished_at = self.kernel.sim.now
            self._teardown_address_space()
            self._finished = True
            if coordinator is not None:
                coordinator.finished(self)
        return self.stats

    # -- checkpoint state surface ------------------------------------------
    def attach_coordinator(self, coordinator) -> None:
        self._coordinator = coordinator

    @property
    def space_name(self) -> str:
        return f"{self.name}@{self.node_id}"

    def snapshot_token(self) -> dict:
        """This instance's resume token (a plain tree)."""
        token = {
            "started": self._started,
            "finished": self._finished,
            "cursor": self.cursor,
            "stats": {field: getattr(self.stats, field)
                      for field in _STATS_FIELDS},
        }
        if self._started and not self._finished:
            token["rng"] = self.rng.bit_generator.state
            token["next_page"] = self._next_page
            token["binary_pages"] = self._binary_pages
            token["app"] = self.snapshot_app_state()
        return token

    def resume_from(self, token: dict) -> None:
        """Stage ``token`` for the next :meth:`run` (restore happens
        inside the spawned process, after layer state is back)."""
        self._resume_token = token

    def _apply_stats(self, fields: dict) -> None:
        for field in _STATS_FIELDS:
            setattr(self.stats, field, fields[field])

    def _restore_token(self, token: dict) -> None:
        self._apply_stats(token["stats"])
        self.cursor = int(token["cursor"])
        self.rng.bit_generator.state = token["rng"]
        self._next_page = int(token["next_page"])
        self._binary_pages = int(token["binary_pages"])
        # the address space survives in the restored VM; reattach
        self.aspace = self.kernel.vm.space_by_name(self.space_name)
        self.restore_app_state(token["app"])

    def snapshot_app_state(self) -> dict:
        """Subclass hook: regions and open handles shared across bodies."""
        return {}

    def restore_app_state(self, state: dict) -> None:
        """Subclass hook: inverse of :meth:`snapshot_app_state`."""

    def _reopen_handle(self, path: str, state: dict):
        """Reopen ``path`` against the restored filesystem and put back
        the handle's position and readahead window."""
        handle = self.kernel.open(path)
        handle.restore_state(state)
        return handle

    # -- memory behaviour ---------------------------------------------------
    def _setup_address_space(self) -> None:
        self.aspace = self.kernel.vm.create_space(
            f"{self.name}@{self.node_id}")
        self._next_page = 0

    def _teardown_address_space(self) -> None:
        if self.aspace is not None:
            self.kernel.vm.destroy_space(self.aspace)
            self.aspace = None

    def map_binary(self) -> Tuple[int, int]:
        """Map the program image's pages; returns the (start, npages) region.

        Pages map to the binary file's actual disk blocks, so demand
        loading reads 4 KB at the right sectors.
        """
        fs = self.kernel.fs
        inode = fs.lookup(self.binary_path)
        node = self.kernel.node_config
        page_kb = node.vm.page_kb
        blocks_per_page = node.blocks_per_page
        spb = node.sectors_per_block
        total_pages = (self.binary_kb + page_kb - 1) // page_kb
        start = self._next_page
        for i in range(total_pages):
            block_index = i * blocks_per_page
            if block_index < inode.nblocks:
                sector = inode.blocks[block_index] * spb
                self.aspace.file_pages[start + i] = (
                    sector, page_kb * 1024 // 512)
        self._next_page += total_pages
        self._binary_pages = total_pages
        return start, total_pages

    @staticmethod
    def subregion(region: Tuple[int, int], frac0: float,
                  frac1: float) -> Tuple[int, int]:
        """Slice of a page region between fractional bounds."""
        if not (0 <= frac0 < frac1 <= 1):
            raise ValueError("need 0 <= frac0 < frac1 <= 1")
        start, npages = region
        lo = start + int(npages * frac0)
        hi = start + max(int(npages * frac1), int(npages * frac0) + 1)
        return lo, min(hi, start + npages) - lo

    def load_pages(self, region: Tuple[int, int], write: bool = False):
        """Generator: touch a page region sequentially (demand loading).

        ``write=True`` models initialising data structures: the pages come
        in dirty, so their later eviction swaps them out.
        """
        start, npages = region
        yield from self.kernel.vm.touch_range(self.aspace, start, npages,
                                              write=write)
        self.stats.pages_touched += npages

    def allocate(self, kb: int) -> Tuple[int, int]:
        """Reserve an anonymous region of ``kb``; returns (start, npages)."""
        page_kb = self.kernel.node_config.vm.page_kb
        npages = max(1, (kb + page_kb - 1) // page_kb)
        region = (self._next_page, npages)
        self._next_page += npages
        return region

    def compute(self, seconds: float, region: Optional[Tuple[int, int]] = None,
                touches_per_slice: int = 8, dirty_fraction: float = 0.3,
                slice_seconds: float = 0.25,
                code_region: Optional[Tuple[int, int]] = None,
                code_touches: int = 2):
        """Generator: burn CPU while touching the working set.

        Splits ``seconds`` into slices; after each, touches
        ``touches_per_slice`` random pages of ``region`` (a fraction
        written) plus ``code_touches`` random pages of ``code_region``
        (always clean — instruction fetch).  Touching non-resident pages
        under memory pressure generates the implicit 4 KB paging traffic;
        evicted text pages are re-demand-loaded from the program image,
        which is why paging reads are not bounded by paging writes.
        """
        if seconds < 0:
            raise ValueError("negative compute time")
        cpu = self.kernel.cpu
        vm = self.kernel.vm
        # resident touches take the plain-call hit path; only a fault
        # drives the ``access`` generator
        hit = vm.note_access
        aspace = self.aspace
        rng = self.rng
        remaining = seconds
        while remaining > 0:
            chunk = min(slice_seconds, remaining)
            yield from cpu.execute(chunk)
            self.stats.compute_seconds += chunk
            remaining -= chunk
            if region is not None and touches_per_slice > 0:
                start, npages = region
                pages = rng.integers(start, start + npages,
                                     size=touches_per_slice).tolist()
                dirty = (rng.random(touches_per_slice)
                         < dirty_fraction).tolist()
                for page, write in zip(pages, dirty):
                    if not hit(aspace, page, write):
                        yield from vm.access(aspace, page, write=write)
                self.stats.pages_touched += touches_per_slice
            if code_region is not None and code_touches > 0:
                start, npages = code_region
                pages = rng.integers(start, start + npages,
                                     size=code_touches).tolist()
                for page in pages:
                    if not hit(aspace, page):
                        yield from vm.access(aspace, page, write=False)
                self.stats.pages_touched += code_touches

    # -- file I/O helpers ------------------------------------------------
    def read_file(self, handle, nbytes: int, chunk: int = 8192):
        """Generator: sequential read in ``chunk``-byte syscalls."""
        remaining = nbytes
        while remaining > 0:
            n = yield from handle.read(min(chunk, remaining))
            if n == 0:
                break
            self.stats.bytes_read += n
            remaining -= n

    def write_file(self, handle, nbytes: int, chunk: int = 8192):
        """Generator: sequential write in ``chunk``-byte syscalls."""
        remaining = nbytes
        while remaining > 0:
            n = yield from handle.write(min(chunk, remaining))
            self.stats.bytes_written += n
            remaining -= n

    def append_stats(self, handle, nbytes: int):
        """Generator: append a short statistics record."""
        n = yield from handle.append(nbytes)
        self.stats.bytes_written += n

    # -- communication -------------------------------------------------------
    def exchange_with_neighbors(self, tag: int, nbytes: int, nnodes: int):
        """Generator: ring boundary exchange (send both ways, recv both)."""
        if self.pvm is None or nnodes < 2:
            return
        left = (self.node_id - 1) % nnodes
        right = (self.node_id + 1) % nnodes
        self.pvm.isend(self.node_id, left, tag, nbytes)
        self.pvm.isend(self.node_id, right, tag, nbytes)
        self.stats.messages_sent += 2
        yield from self.pvm.recv(self.node_id, tag)
        yield from self.pvm.recv(self.node_id, tag)

    def barrier(self, name: str, nnodes: int):
        """Generator: cluster-wide phase barrier."""
        if self.pvm is None or nnodes < 2:
            return
        yield from self.pvm.barrier(f"{self.name}:{name}", self.node_id,
                                    nnodes)
