"""The shared crash-safe write helper."""

import json
import sys
import threading

from repro._atomic import atomic_write


def test_writes_text_and_bytes(tmp_path):
    path = tmp_path / "doc.json"
    assert atomic_write(path, "first\n") == path
    assert path.read_text() == "first\n"
    atomic_write(path, b"second")
    assert path.read_bytes() == b"second"
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def test_concurrent_writers_of_one_path_leave_one_complete_document(tmp_path):
    # Large documents make a torn or interleaved write likely to show up;
    # readers racing the writers must only ever see a whole document.
    path = tmp_path / "shared.json"
    writers, rounds = 6, 25
    documents = {
        w: json.dumps({"writer": w, "fill": [w] * 20_000}) for w in range(writers)
    }
    atomic_write(path, documents[0])
    start = threading.Barrier(writers + 1)
    stop = threading.Event()
    seen = []

    def write(w):
        start.wait()
        for _ in range(rounds):
            atomic_write(path, documents[w])

    def read():
        start.wait()
        while not stop.is_set():
            seen.append(path.read_text())

    threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads + [reader]:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        reader.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads + [reader])
    assert seen
    assert all(text in documents.values() for text in seen)
    assert path.read_text() in documents.values()
    # Every temporary file was renamed into place; none is left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["shared.json"]
