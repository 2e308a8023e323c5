"""Work-stealing lease queue: exactly-once folds under loss and theft,
and guided batch leases sized by the specs' timed chunks."""

import pytest

from repro.distribute.queue import LEASE_BUDGET, ChunkQueue
from repro.orchestrate.plan import Chunk
from repro.orchestrate.worker import ChunkTask


def task(index: int, spec: str = "spec-a", group: int = 0) -> ChunkTask:
    return ChunkTask(group=group, spec=spec, chunk=Chunk(index, 1), key=7)


def make_queue(n_tasks: int = 3, lease_timeout: float = 10.0) -> ChunkQueue:
    queue = ChunkQueue(lease_timeout=lease_timeout)
    for index in range(n_tasks):
        queue.add_task(task(index))
    return queue


def timed_queue(
    n_tasks: int, lease_timeout: float = 10.0, seconds: float = 0.001
) -> ChunkQueue:
    """A queue whose spec one completed chunk has already timed."""
    queue = make_queue(n_tasks + 1, lease_timeout)
    [(task_id, _)] = queue.claim("w", now=0.0)
    assert queue.complete(task_id, seconds)
    return queue


def ids(lease) -> list[int]:
    return [task_id for task_id, _ in lease]


class TestLeasing:
    def test_claim_hands_out_tasks_in_order(self):
        queue = make_queue(2)
        assert queue.claim("w1", now=0.0) == [(0, task(0))]
        assert queue.claim("w2", now=0.0) == [(1, task(1))]
        assert queue.claim("w1", now=0.0) == []  # all leased out

    def test_complete_is_exactly_once(self):
        queue = make_queue(1)
        [(task_id, _)] = queue.claim("w1", now=0.0)
        assert queue.complete(task_id) is True
        assert queue.complete(task_id) is False  # duplicate dropped
        assert queue.done

    def test_unknown_completion_rejected(self):
        with pytest.raises(KeyError):
            make_queue(1).complete(99)


class TestLeaseSizes:
    def test_unseen_spec_leases_one_chunk_then_the_guided_share(self):
        queue = make_queue(41)
        assert ids(queue.claim("w1", now=0.0, workers=2)) == [0]
        assert ids(queue.claim("w2", now=0.0, workers=2)) == [1]
        queue.complete(0, seconds=0.001)
        # 39 pending over 2 workers: ceil(39 / 4) = 10 chunks.
        assert ids(queue.claim("w1", now=0.0, workers=2)) == list(
            range(2, 12)
        )
        # 29 pending: ceil(29 / 4) = 8.
        assert len(queue.claim("w2", now=0.0, workers=2)) == 8

    def test_guided_leases_shrink_to_single_chunks(self):
        queue = timed_queue(40)
        sizes = []
        while lease := queue.claim("w", now=0.0, workers=2):
            sizes.append(len(lease))
        assert sizes[0] == 10 and sizes[-1] == 1
        assert sizes == sorted(sizes, reverse=True)
        assert sum(sizes) == 40

    def test_lease_never_exceeds_what_is_pending(self):
        queue = timed_queue(3)
        assert len(queue.claim("w", now=0.0, workers=1)) == 2
        assert len(queue.claim("w", now=0.0, workers=1)) == 1
        assert queue.claim("w", now=0.0, workers=1) == []

    def test_time_bound_forces_one_chunk_at_a_small_lease_timeout(self):
        # An eighth of 0.04 s fits no 0.01 s chunk: lease one at a time.
        queue = timed_queue(20, lease_timeout=0.04, seconds=0.01)
        assert LEASE_BUDGET * 0.04 < 0.01
        assert len(queue.claim("w", now=0.0, workers=1)) == 1

    def test_time_bound_caps_the_guided_share(self):
        # 10 s * 1/8 / 0.25 s = 5 chunks, below the guided 10.
        queue = timed_queue(40, lease_timeout=10.0, seconds=0.25)
        assert len(queue.claim("w", now=0.0, workers=2)) == 5

    def test_lease_takes_one_group_spec_and_key(self):
        queue = ChunkQueue()
        for index in range(3):
            queue.add_task(task(index, spec="a"))
        queue.add_task(task(3, spec="b"))
        queue.add_task(task(4, spec="a", group=1))
        queue.timings["a"] = [0.001, 1]
        assert ids(queue.claim("w", now=0.0, workers=1)) == [0, 1, 2]
        assert queue.claim("w", now=0.0) == [(3, task(3, spec="b"))]
        assert ids(queue.claim("w", now=0.0, workers=1)) == [4]

    def test_every_chunk_of_a_lease_shares_its_deadline(self):
        queue = timed_queue(8, lease_timeout=5.0)
        lease = queue.claim("w", now=1.0, workers=1)
        assert len(lease) == 4
        assert {queue.leases[task_id].deadline for task_id in ids(lease)} == {
            6.0
        }


class TestBatchLeaseRecovery:
    def test_release_worker_requeues_every_chunk_of_a_batch(self):
        queue = timed_queue(8)
        lease = ids(queue.claim("dead", now=0.0, workers=1))
        assert len(lease) == 4
        assert queue.release_worker("dead") == 4
        assert queue.requeues == 4
        # The stolen batch went back in order and re-leases whole.
        again = []
        while rest := queue.claim("alive", now=1.0, workers=1):
            again += ids(rest)
        assert sorted(again) == list(range(1, 9))
        assert again[-4:] == lease

    def test_reap_expired_steals_every_chunk_of_a_batch(self):
        queue = timed_queue(8, lease_timeout=5.0)
        lease = ids(queue.claim("slow", now=0.0, workers=1))
        assert queue.reap_expired(now=4.9) == 0
        assert queue.reap_expired(now=5.0) == len(lease)
        assert not queue.leases

    def test_requeue_puts_back_each_failed_chunk_of_a_batch(self):
        queue = timed_queue(4)
        lease = ids(queue.claim("w", now=0.0, workers=1))
        assert len(lease) == 2
        for task_id in lease:
            queue.requeue(task_id)
        assert not queue.leases
        assert list(queue.pending)[-2:] == lease

    def test_duplicate_id_in_a_batch_folds_once(self):
        queue = timed_queue(4)
        lease = ids(queue.claim("w", now=0.0, workers=1))
        results = [queue.complete(task_id) for task_id in lease + lease[:1]]
        assert results == [True] * len(lease) + [False]

    def test_completed_chunks_are_skipped_not_leased(self):
        queue = timed_queue(6)
        lease = ids(queue.claim("slow", now=0.0, workers=1))  # 3 chunks
        queue.release_worker("slow")
        queue.complete(lease[1])  # the slow worker's copy lands late
        leased = []
        while rest := queue.claim("w", now=0.0, workers=1):
            leased += ids(rest)
        assert lease[1] not in leased
        assert sorted(leased + [lease[1]]) == list(range(1, 7))


class TestWorkerDeath:
    def test_release_worker_requeues_its_leases(self):
        queue = make_queue(3)
        queue.claim("dead", now=0.0)
        queue.claim("dead", now=0.0)
        queue.claim("alive", now=0.0)
        assert queue.release_worker("dead") == 2
        # The survivor can steal both re-queued tasks.
        assert queue.claim("alive", now=1.0) != []
        assert queue.claim("alive", now=1.0) != []
        assert queue.claim("alive", now=1.0) == []
        assert queue.requeues == 2

    def test_release_unknown_worker_is_noop(self):
        queue = make_queue(1)
        assert queue.release_worker("ghost") == 0


class TestStragglers:
    def test_reap_expired_steals_old_leases(self):
        queue = make_queue(2, lease_timeout=5.0)
        queue.claim("slow", now=0.0)  # deadline 5.0
        queue.claim("fast", now=3.0)  # deadline 8.0
        assert queue.reap_expired(now=6.0) == 1  # only the slow lease
        stolen = queue.claim("fast", now=6.0)
        assert stolen == [(0, task(0))]

    def test_duplicate_after_steal_folds_once(self):
        """The slow worker finishes after its lease was stolen and the
        thief also finishes: exactly one completion counts."""
        queue = make_queue(1, lease_timeout=1.0)
        [(task_id, _)] = queue.claim("slow", now=0.0)
        queue.reap_expired(now=2.0)
        [(thief_id, _)] = queue.claim("thief", now=2.0)
        assert thief_id == task_id
        assert queue.complete(task_id) is True  # slow arrives first
        assert queue.complete(thief_id) is False  # thief's copy dropped
        assert queue.outstanding == 0

    def test_completed_task_never_reclaimed_from_pending(self):
        """A stolen-then-completed task sitting in pending is skipped."""
        queue = make_queue(2, lease_timeout=1.0)
        [(task_id, _)] = queue.claim("slow", now=0.0)
        queue.reap_expired(now=2.0)  # task_id back in pending
        assert queue.complete(task_id) is True  # original result lands
        claim = queue.claim("w2", now=2.0)
        assert claim and task_id not in ids(claim)

    def test_requeue_puts_failed_task_back(self):
        queue = make_queue(1)
        [(task_id, _)] = queue.claim("w1", now=0.0)
        queue.requeue(task_id)
        assert queue.claim("w2", now=0.0) == [(task_id, task(0))]

    def test_requeue_of_completed_task_is_noop(self):
        queue = make_queue(1)
        [(task_id, _)] = queue.claim("w1", now=0.0)
        queue.complete(task_id)
        queue.requeue(task_id)
        assert queue.claim("w2", now=0.0) == []
