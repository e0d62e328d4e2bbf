from concurrent.futures import ThreadPoolExecutor

from layers import _traced_executor
from spans import NO_PARENT, Tracer, covered_length, handed_off_time, overlap_time, self_times


def _columns(spans):
    """(parent, thread, start, end) columns of a list of span tuples."""
    return tuple(list(col) for col in zip(*spans))


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(2, 4), (3, 6), (8, 9)], 0, 10) == 5
    assert covered_length([(-5, 3), (7, 20)], 0, 10) == 6
    assert covered_length([(1, 2), (1, 2)], 0, 10) == 1


def test_self_times_on_one_thread():
    spans = [
        (NO_PARENT, 1, 0, 100),  # root
        (0, 1, 10, 40),          # child
        (1, 1, 20, 30),          # grandchild
        (0, 1, 50, 70),          # second child
    ]
    selfs = self_times(*_columns(spans))
    assert selfs == [50, 20, 10, 20]
    assert sum(selfs) == 100  # self times of a one-thread tree add up to the root
    assert handed_off_time(*_columns(spans)) == 0
    assert overlap_time(*_columns(spans)) == 0


def test_self_times_with_worker_threads():
    spans = [
        (NO_PARENT, 1, 0, 100),  # root on the main thread
        (0, 1, 10, 90),          # pool: the main thread waits
        (1, 2, 10, 50),          # worker 2, first task
        (1, 2, 55, 80),          # worker 2, second task
        (1, 3, 12, 85),          # worker 3, overlapping both
        (4, 3, 20, 30),          # nested inside worker 3's task
    ]
    selfs = self_times(*_columns(spans))
    # the pool's children cover [10, 85] once merged, not 40 + 25 + 73
    assert selfs == [20, 5, 40, 25, 63, 10]
    assert handed_off_time(*_columns(spans)) == 40 + 25 + 73
    # self times add up to the root's duration plus the tasks' mutual overlap
    assert overlap_time(*_columns(spans)) == 40 + 25 + 73 - 75
    assert sum(selfs) - overlap_time(*_columns(spans)) == 100


def test_tracer_links_pool_tasks_to_the_submitting_span():
    tracer = Tracer()
    pool_cls = _traced_executor(tracer, ThreadPoolExecutor)

    def task(_):
        idx = tracer.open("work")
        tracer.close(idx)

    root = tracer.open("root")
    with pool_cls(max_workers=2) as pool:
        list(pool.map(task, range(6)))
    tracer.close(root)

    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("work") == 6
    pool_idx = names.index("benchmark.pool")
    assert tracer.parent[pool_idx] == root
    work = [i for i, n in enumerate(names) if n == "work"]
    assert all(tracer.parent[i] == pool_idx for i in work)
    assert all(tracer.thread[i] != tracer.thread[root] for i in work)
    columns = (tracer.parent, tracer.thread, tracer.start, tracer.end)
    assert all(t >= 0 for t in self_times(*columns))
    assert handed_off_time(*columns) == sum(tracer.end[i] - tracer.start[i] for i in work)


def test_tracer_counts_add_up():
    tracer = Tracer()
    tracer.count("draws", 3)
    tracer.count("draws", 4)
    assert tracer.counts == {"draws": 7}
