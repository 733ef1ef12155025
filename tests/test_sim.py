import pytest

from chronorpc.protocol import TransportClosed
from chronorpc.sim import EventLoop, Link, named_rng


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.call_at(30, seen.append, "c")
        loop.call_at(10, seen.append, "a")
        loop.call_at(20, seen.append, "b")
        loop.run_until(deadline=100)
        assert seen == ["a", "b", "c"]
        assert loop.now() == 100

    def test_ties_run_in_submission_order(self):
        loop = EventLoop()
        seen = []
        for tag in "abcd":
            loop.call_at(50, seen.append, tag)
        loop.run_until(deadline=50)
        assert seen == list("abcd")

    def test_past_callback_clamps_to_now(self):
        loop = EventLoop(start=1000)
        fired = []
        loop.call_at(200, lambda: fired.append(loop.now()))
        loop.run_until(deadline=1000)
        assert fired == [1000]

    def test_clock_advances_to_event_times(self):
        loop = EventLoop()
        stamps = []
        loop.call_at(500, lambda: stamps.append(loop.now()))
        loop.call_at(700, lambda: stamps.append(loop.now()))
        loop.run_until(deadline=700)
        assert stamps == [500, 700]

    def test_callbacks_can_schedule_callbacks(self):
        loop = EventLoop()
        seen = []

        def chain(n):
            seen.append((loop.now(), n))
            if n:
                loop.call_at(loop.now() + 5, chain, n - 1)

        loop.call_at(10, chain, 3)
        loop.run_until(deadline=100)
        assert seen == [(10, 3), (15, 2), (20, 1), (25, 0)]

    def test_run_until_predicate_stops_early(self):
        loop = EventLoop()
        seen = []
        for t in (10, 20, 30):
            loop.call_at(t, seen.append, t)
        done = loop.run_until(lambda: len(seen) == 2, deadline=1000)
        assert done
        assert seen == [10, 20]
        assert loop.now() == 20
        assert loop.pending() == 1

    def test_run_until_deadline_result(self):
        loop = EventLoop()
        assert loop.run_until(lambda: False, deadline=10) is False
        assert loop.now() == 10

    def test_deadline_not_passed_by_later_events(self):
        loop = EventLoop()
        fired = []
        loop.call_at(100, fired.append, "late")
        loop.run_until(deadline=50)
        assert fired == []
        assert loop.now() == 50
        loop.run_until(deadline=100)
        assert fired == ["late"]

    def test_clock_never_goes_backwards(self):
        loop = EventLoop()
        stamps = []
        for t in (5, 5, 3, 8):
            loop.call_at(t, lambda: stamps.append(loop.now()))
        loop.run_until(deadline=20)
        assert stamps == sorted(stamps)

    def test_wait_until_is_run_until(self):
        loop = EventLoop()
        assert loop.wait_until(lambda: True, 100) is True
        assert loop.now() == 0


class TestNamedRng:
    def test_stable_streams(self):
        a = named_rng(1, "server", "s1")
        b = named_rng(1, "server", "s1")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_distinct_names_distinct_streams(self):
        a = named_rng(1, "server", "s1")
        b = named_rng(1, "server", "s2")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_seed_matters(self):
        a = named_rng(1, "link")
        b = named_rng(2, "link")
        assert a.random() != b.random()


class TestLink:
    def test_delivers_after_delay(self):
        loop = EventLoop()
        got = []
        link = Link(loop, got.append, delay=250)
        link.send(b"one\n")
        loop.run_until(deadline=249)
        assert got == []
        loop.run_until(deadline=250)
        assert got == [b"one\n"]

    def test_fifo_even_with_jitter(self):
        loop = EventLoop()
        got = []
        times = []

        def stamp(frame):
            got.append(frame)
            times.append(loop.now())

        link = Link(
            loop, stamp, delay=100, jitter=500, rng=named_rng(3, "t"), name="j"
        )
        frames = [f"f{i}\n".encode() for i in range(40)]
        for frame in frames:
            link.send(frame)
        loop.run_until(deadline=10_000_000)
        assert got == frames
        assert len(times) == 40
        assert times == sorted(times)

    def test_zero_delay_still_async(self):
        loop = EventLoop()
        got = []
        link = Link(loop, got.append)
        link.send(b"x\n")
        assert got == []  # nothing delivered until the loop runs
        loop.run_until(deadline=0)
        assert got == [b"x\n"]

    def test_closed_link_raises(self):
        loop = EventLoop()
        link = Link(loop, lambda f: None)
        link.close()
        with pytest.raises(TransportClosed):
            link.send(b"x\n")

    def test_frames_sent_counter(self):
        loop = EventLoop()
        link = Link(loop, lambda f: None, delay=10)
        link.send(b"a\n")
        link.send(b"b\n")
        assert link.frames_sent == 2
