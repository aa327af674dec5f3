# reprolint: disable-file=RPR007
"""Suppression fixture: every directive style silencing a real finding."""

import shutil

import numpy as np


def same_line(path, arrays):
    np.savez(path, **arrays)  # reprolint: disable=RPR001


def standalone_line(layout_dir):
    # reprolint: disable=RPR001
    shutil.rmtree(layout_dir)


class FileWide:
    # RPR007 violation silenced by the disable-file directive up top.
    def __init__(self, evaluator, snapshot):
        self.evaluator = evaluator
        self._snapshot = snapshot

    def swap_snapshot(self, new_snapshot):
        self._snapshot = new_snapshot


def still_caught(path):
    # No directive covers this line: the finding must survive.
    path.unlink()
