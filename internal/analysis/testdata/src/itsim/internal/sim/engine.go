package sim

// Engine is the fixture event queue: the Schedule family's first argument
// is the insertion key entropyflow treats as a determinism-critical sink.
// Pure declarations — clean for the source ban and vtime, which also run
// over this fixture package.
type Engine struct {
	now Time
}

// Handler is the fixture event-handler interface.
type Handler interface {
	Fire(at Time)
}

// Schedule enqueues fn at the virtual instant at.
func (e *Engine) Schedule(at Time, fn func()) {
	_ = at
	_ = fn
}

// ScheduleHandler enqueues h at the virtual instant at.
func (e *Engine) ScheduleHandler(at Time, h Handler) {
	_ = at
	_ = h
}

// ScheduleAfter enqueues fn delay after the current instant.
func (e *Engine) ScheduleAfter(delay Time, fn func()) {
	_ = delay
	_ = fn
}
