"""RPR003 fixture: a state transition that never emits an event."""


class SilentEngine:
    def __init__(self, observers):
        self._observers = observers
        self._reset_lifetime_state()

    def _reset_lifetime_state(self):
        self._epoch = 0
        self._layout_id = None

    def adopt_layout(self, layout_id):
        # Mutates lifetime state with no _emit(...) anywhere on the
        # path: an event-stream follower replaying this engine drifts.
        self._layout_id = layout_id
        self._epoch += 1

    def step(self):
        self._epoch += 1
        self._emit("step", epoch=self._epoch)

    def _emit(self, name, **payload):
        for observer in self._observers:
            observer.on_event(name, payload)
