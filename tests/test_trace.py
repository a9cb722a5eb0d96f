import contextvars
import threading

from reconstab import trace


def test_a_note_without_a_recorder_records_nothing_and_calls_nothing():
    def costly():
        raise AssertionError("called without a recorder")

    assert not trace.active()
    trace.note("value", costly)


def test_a_recorder_takes_values_and_what_callables_return():
    with trace.recording() as notes:
        assert trace.active()
        trace.note("plain", 1.5)
        trace.note("computed", lambda: 2.5)
    assert notes == {"plain": 1.5, "computed": 2.5}
    assert not trace.active()
    trace.note("plain", 3.0)
    assert notes["plain"] == 1.5


def test_an_inner_recorder_holds_its_own_notes_and_restores_the_outer():
    with trace.recording() as outer:
        trace.note("a", 1)
        with trace.recording() as inner:
            trace.note("b", 2)
        trace.note("c", 3)
    assert inner == {"b": 2}
    assert outer == {"a": 1, "c": 3}


def test_a_thread_records_only_in_a_copy_of_the_recording_context():
    seen = {}

    def work(name):
        seen[name] = trace.active()
        trace.note(name, True)

    with trace.recording() as notes:
        bare = threading.Thread(target=work, args=("bare",))
        copied = threading.Thread(
            target=contextvars.copy_context().run, args=(work, "copied")
        )
        for thread in (bare, copied):
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
    assert seen == {"bare": False, "copied": True}
    assert notes == {"copied": True}
