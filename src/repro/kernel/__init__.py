"""Kernel substrate: the Linux-like machinery between applications and the
instrumented driver.

The paper attributes everything it observes at the driver to three kernel
mechanisms, all implemented here from scratch:

* 1 KB requests — the filesystem block size, moved by the **buffer cache**
  and flushed by a bdflush-style write-back daemon (:mod:`.buffercache`);
* 4 KB requests — **demand paging** against a swap region
  (:mod:`.vm`);
* ~16 KB (to 32 KB under multiprogramming) requests — sequential
  **read-ahead** whose window is bounded by the I/O buffer / cache size
  (:mod:`.readahead`).

On top sit a minimal ext2-like filesystem (:mod:`.fs`), a file syscall
layer (:mod:`.syscalls`), the kernel logger and update daemons
(:mod:`.klog`), a round-robin CPU (:mod:`.cpu`), and the
:class:`~repro.kernel.kernel.NodeKernel` facade that wires one node
together.
"""

from repro.kernel.buffercache import BufferCache
from repro.kernel.fs import FileSystem, Inode
from repro.kernel.readahead import ReadAheadState
from repro.kernel.vm import AddressSpace, VirtualMemory
from repro.kernel.cpu import CPU
from repro.kernel.klog import SysLogger, UpdateDaemon
from repro.kernel.syscalls import FileHandle
from repro.kernel.kernel import NodeKernel

__all__ = [
    "AddressSpace",
    "BufferCache",
    "CPU",
    "FileHandle",
    "FileSystem",
    "Inode",
    "NodeKernel",
    "ReadAheadState",
    "SysLogger",
    "UpdateDaemon",
    "VirtualMemory",
]
