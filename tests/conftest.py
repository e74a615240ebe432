"""Helpers shared by the loader tests."""

import contextlib
import signal
import threading


def load_fifo(loader, data, fifo, keep=None):
    """``loader`` of ``data`` written into the FIFO ``fifo``: a stream with no size,
    which cannot seek."""
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        return loader(fifo, keep=keep)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the main thread once ``seconds`` have passed, so that a
    hang fails its test instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"ran over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
