"""LD003: whole-file Env I/O made while holding a mutex (how ``LsmDB``
once opened a table on a reader miss, every reader queued behind it)."""

import threading


class TableCache:
    def __init__(self, env):
        self.env = env
        self._mutex = threading.Lock()
        self._images = {}  # guarded_by: _mutex

    def image_broken(self, name):
        with self._mutex:
            if name not in self._images:
                self._images[name] = self.env.read_file(name)  # VIOLATION LD003
            return self._images[name]

    def image_ok(self, name):
        data = self.env.read_file(name)
        with self._mutex:
            return self._images.setdefault(name, data)

    def names_ok(self, directory):
        with self._mutex:
            # Not an Env method the rule knows as blocking.
            return self.env.list_dir(directory)
