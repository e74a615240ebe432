"""Helpers shared by the loader tests."""

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
