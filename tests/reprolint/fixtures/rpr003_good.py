"""RPR003 fixture: every public state transition (transitively) emits."""


class ObservableEngine:
    def __init__(self, observers):
        self._observers = observers
        self._reset_lifetime_state()

    def _reset_lifetime_state(self):
        self._epoch = 0
        self._layout_id = None
        self._plan_cache = None

    def adopt_layout(self, layout_id):
        self._layout_id = layout_id
        self._bump_epoch()

    def _bump_epoch(self):
        # Private helper: the emission is transitive through it.
        self._epoch += 1
        self._emit("epoch", epoch=self._epoch)

    @property
    def plan(self):
        # Property getter: lazily caches, which is a mutation in letter
        # but a read in spirit — getters are exempt.
        if self._plan_cache is None:
            self._plan_cache = object()
        return self._plan_cache

    def describe(self):
        # Pure read: no tracked writes, no emission required.
        return (self._layout_id, self._epoch)

    def _emit(self, name, **payload):
        for observer in self._observers:
            observer.on_event(name, payload)
