"""Deep-queue scaling: a disk's per-request cost must not grow with depth.

Times the same-instant storm of ``tools/bench_core.py`` (best of three,
interleaved) at two queue depths four times apart.  Each service makes
one scheduler pick from the waiting queue.  A pick that scans the queue
makes the per-request time grow with the depth (a linear-scan C-LOOK
read a ratio of 3-4); C-LOOK's bisected pick keeps it nearly flat.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_core import bench_batched_drain  # noqa: E402


def test_deep_queue_per_request_time_stays_flat():
    # best of three per depth, the depths interleaved so that a change in
    # host load between them does not pass for a change in cost
    best = {2_000: 0.0, 8_000: 0.0}
    for _ in range(3):
        for nrequests in best:
            result = bench_batched_drain(nrequests=nrequests, repeats=1)
            best[nrequests] = max(best[nrequests], result["requests_per_s"])
    ratio = best[2_000] / best[8_000]
    print(f"\n2,000 deep {best[2_000]:,.0f} req/s, "
          f"8,000 deep {best[8_000]:,.0f} req/s, "
          f"per-request time ratio {ratio:.2f}")
    assert ratio < 2.0
