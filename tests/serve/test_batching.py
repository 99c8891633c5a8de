"""Compute-lane contracts: isolation, deadlines, serial off-loop compute,
depth accounting and shutdown."""

import asyncio
import sys
import threading
import time

import pytest

from repro.serve.batching import BatchTimeout, MicroBatcher


def _started(lane, n=1):
    """Wait (on the loop) until ``n`` computes have started."""

    async def poll():
        while lane.computes < n:
            await asyncio.sleep(0.001)

    return asyncio.wait_for(poll(), timeout=5.0)


def test_per_query_exception_hits_only_that_query():
    def bad():
        raise ValueError("bad query")

    async def scenario():
        lane = MicroBatcher()
        try:
            return await asyncio.gather(
                lane.submit(lambda: "ok".upper()),
                lane.submit(bad),
                lane.submit(lambda: "after"),
                return_exceptions=True,
            )
        finally:
            lane.close()

    good, failed, after = asyncio.run(scenario())
    assert good == "OK"
    assert isinstance(failed, ValueError)
    assert after == "after"


def test_timeout_mid_compute_raises_batch_timeout():
    async def scenario():
        lane = MicroBatcher()
        try:
            with pytest.raises(BatchTimeout):
                await lane.submit(lambda: time.sleep(0.2), timeout_s=0.05)
        finally:
            lane.close()

    asyncio.run(scenario())


def test_expired_query_is_failed_without_compute():
    computed = []
    release = threading.Event()

    def first():
        release.wait(5.0)
        computed.append("first")

    async def scenario():
        lane = MicroBatcher()
        try:
            blocker = asyncio.ensure_future(lane.submit(first))
            stale = asyncio.ensure_future(
                lane.submit(lambda: computed.append("stale"), timeout_s=0.05)
            )
            await _started(lane)
            # Block the loop past the second query's deadline, so its
            # client-side timeout cannot fire first: the worker reaches
            # it with the deadline already gone.
            time.sleep(0.1)
            release.set()
            time.sleep(0.1)
            with pytest.raises(BatchTimeout):
                await stale
            await blocker
            await lane.submit(lambda: computed.append("next"))
        finally:
            lane.close()
        return lane.stats()

    stats = asyncio.run(scenario())
    assert computed == ["first", "next"]
    assert stats["expired"] == 1.0


def test_close_fails_pending_queries():
    release = threading.Event()

    async def scenario():
        lane = MicroBatcher()
        # A long /schedule compute holds the lane while two more wait.
        running = asyncio.ensure_future(
            lane.submit(lambda: release.wait(5.0) and "done")
        )
        waiting = [asyncio.ensure_future(lane.submit(lambda: "never")) for _ in range(2)]
        await _started(lane)
        t0 = time.perf_counter()
        lane.close()
        results = await asyncio.gather(*waiting, return_exceptions=True)
        failed_in = time.perf_counter() - t0
        depth = lane.depth
        release.set()
        with pytest.raises(BatchTimeout):
            await lane.submit(lambda: "after close")
        return results, failed_in, depth, await running

    results, failed_in, depth, finished = asyncio.run(scenario())
    assert all(isinstance(r, BatchTimeout) for r in results)
    assert failed_in < 1.0  # promptly: not after the running compute
    assert depth == 0
    assert finished == "done"  # the running compute is left to finish


def test_computes_run_one_at_a_time_off_the_loop_thread():
    lock = threading.Lock()
    active, peak, threads = [0], [0], set()

    def compute():
        with lock:
            active[0] += 1
            peak[0] = max(peak[0], active[0])
        threads.add(threading.get_ident())
        time.sleep(0.01)
        with lock:
            active[0] -= 1

    async def scenario():
        lane = MicroBatcher()
        try:
            await asyncio.gather(*(lane.submit(compute) for _ in range(6)))
        finally:
            lane.close()

    asyncio.run(scenario())
    assert peak[0] == 1
    assert threading.get_ident() not in threads


def test_depth_counts_waiting_computes_only():
    release = threading.Event()

    async def scenario():
        lane = MicroBatcher()
        try:
            assert lane.depth == 0
            running = asyncio.ensure_future(lane.submit(lambda: release.wait(5.0)))
            await _started(lane)
            assert lane.depth == 0  # the running compute is not waiting
            waiting = asyncio.ensure_future(lane.submit(lambda: "queued"))
            doomed = asyncio.ensure_future(lane.submit(lambda: "late", timeout_s=0.05))
            await asyncio.sleep(0)
            assert lane.depth == 2
            with pytest.raises(BatchTimeout):
                await doomed  # timed out while waiting: it leaves the count
            assert lane.depth == 1
            release.set()
            await running
            assert await waiting == "queued"
            assert lane.depth == 0
        finally:
            lane.close()
        return lane.stats()

    stats = asyncio.run(scenario())
    assert stats["batches"] == 2.0  # the timed-out query never ran


def test_depth_survives_racing_starts_and_timeouts():
    # Computes leave the count on the worker thread as they start while
    # timed-out waiters leave it on the loop thread; a lost update would
    # leave the depth off zero once everything has settled.
    n = 300
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        async def scenario():
            lane = MicroBatcher()
            try:
                outcomes = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            lane.submit(
                                lambda: time.sleep(0.0005),
                                timeout_s=0.001 * (i % 5 + 1),
                            )
                            for i in range(n)
                        ),
                        return_exceptions=True,
                    ),
                    timeout=30.0,
                )
            finally:
                lane.close()
            return lane, outcomes

        lane, outcomes = asyncio.run(scenario())
    finally:
        sys.setswitchinterval(interval)
    assert all(o is None or isinstance(o, BatchTimeout) for o in outcomes)
    assert any(isinstance(o, BatchTimeout) for o in outcomes)
    assert lane.depth == 0
    assert lane.computes + lane.expired <= n


def test_stats_counters():
    observed = []

    async def scenario():
        lane = MicroBatcher(observe=observed.append)
        try:
            await asyncio.gather(*(lane.submit(lambda i=i: i + 1) for i in range(4)))
        finally:
            lane.close()
        return lane.stats()

    stats = asyncio.run(scenario())
    assert stats["batches"] == 4.0
    assert stats["batched_queries"] == 4.0
    assert stats["mean_batch_size"] == 1.0
    assert stats["depth"] == 0.0
    assert stats["expired"] == 0.0
    assert len(observed) == 4 and all(t >= 0.0 for t in observed)
