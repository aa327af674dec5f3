"""RPR007 fixture: snapshot rebinding paired with evaluator notification."""


class NotifyingStore:
    def __init__(self, evaluator, snapshot):
        self.evaluator = evaluator
        self._snapshot = snapshot
        self.evaluator.register_metadata("layout", snapshot)

    def swap_snapshot(self, layout_id, new_snapshot):
        self._snapshot = new_snapshot
        self.evaluator.register_metadata(layout_id, new_snapshot)

    def retire(self, layout_id):
        self._snapshot = None
        self.evaluator.forget(layout_id)

    def consolidated(self, layout_id, new_snapshot):
        self._snapshot = new_snapshot
        self._reregister(layout_id)

    def _reregister(self, layout_id):
        # Transitive notification through a private helper.
        self.evaluator.register_metadata(layout_id, self._snapshot)

    def describe(self):
        return self._snapshot
