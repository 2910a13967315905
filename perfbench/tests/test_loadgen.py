"""Open-loop accounting: latency runs from the due time, not the send."""
import pytest

from loadgen import due_times, run_open_loop


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


def test_due_times_are_evenly_spaced():
    assert due_times(4.0, 3) == [0.0, 0.25, 0.5]
    with pytest.raises(ValueError):
        due_times(0.0, 3)


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    clock = FakeClock()
    service = {0: 0.05, 1: 0.5, 2: 0.05, 3: 0.05}

    def send(index):
        clock.now += service[index]
        return index

    sent = run_open_loop(due_times(10.0, 4), send, senders=1,
                         clock=clock, sleep=clock.sleep)
    assert [s.index for s in sent] == [0, 1, 2, 3]
    assert [s.response for s in sent] == [0, 1, 2, 3]
    # Request 1 leaves on time and stalls for 0.5 s; requests 2 and 3 were
    # due at 0.2 s and 0.3 s but could only leave at 0.6 s and 0.65 s.
    assert sent[1].late == pytest.approx(0.0)
    assert sent[1].latency == pytest.approx(0.5)
    assert sent[2].sent == pytest.approx(0.6)
    assert sent[2].late == pytest.approx(0.4)
    assert sent[2].latency == pytest.approx(0.45)
    assert sent[3].late == pytest.approx(0.35)
    assert sent[3].latency == pytest.approx(0.4)
    # Measured from the send instead, the stall would be invisible.
    assert sent[3].done - sent[3].sent == pytest.approx(0.05)


def test_requests_never_leave_early_and_errors_are_recorded():
    clock = FakeClock()

    def send(index):
        if index == 1:
            raise RuntimeError("refused")
        return "ok"

    sent = run_open_loop(due_times(2.0, 3), send, senders=1, clock=clock,
                         sleep=clock.sleep)
    assert [s.sent for s in sent] == pytest.approx([0.0, 0.5, 1.0])
    assert all(s.late == 0.0 for s in sent)
    assert sent[1].error == "RuntimeError: refused"
    assert sent[1].response is None


def test_several_senders_cover_every_request_once():
    sent = run_open_loop([0.0] * 20, lambda index: index * 2, senders=3)
    assert sorted(s.index for s in sent) == list(range(20))
    assert all(s.response == s.index * 2 for s in sent)
